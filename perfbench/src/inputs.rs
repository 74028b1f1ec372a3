//! Seeded inputs: the TPC-H tables and study views as CSV, the ten study
//! tasks as SheetMusiq gesture scripts, and the `OrderFeed` sheet and
//! batches.
//!
//! The server only ever sees the CSV bytes produced here; the in-process
//! oracle parses the same bytes, so both sides hold identical relations.

use ssa_relation::{csv, Relation};
use ssa_tpch::{FeedConfig, OrderFeed, QueryTask};

/// One table as uploaded: its name, CSV bytes and row count.
pub struct Table {
    pub name: String,
    pub csv: String,
    pub rows: usize,
}

impl Table {
    pub fn of(relation: &Relation) -> Table {
        Table {
            name: relation.name().to_string(),
            csv: csv::to_csv(relation),
            rows: relation.len(),
        }
    }

    /// The relation the server builds from these bytes.
    pub fn parse(&self) -> Relation {
        csv::parse_csv(&self.name, &self.csv).expect("generated CSV parses")
    }
}

/// Print each table's size on a `#` line of the summary.
pub fn describe(tables: &[&Table]) {
    for t in tables {
        println!(
            "# input {:<12} {:>8} rows {:>8.2} MB CSV",
            t.name,
            t.rows,
            t.csv.len() as f64 / 1e6
        );
    }
}

/// The eight TPC-H base tables plus the four study views, sorted by name.
pub fn study_tables(scale: f64, seed: u64) -> Vec<Table> {
    let data = ssa_tpch::generate(&ssa_tpch::GenConfig::scale(scale), seed);
    let catalog = ssa_tpch::study_catalog(&data).expect("study views build");
    let mut names: Vec<String> = catalog.names().iter().map(|n| n.to_string()).collect();
    names.sort();
    names
        .iter()
        .map(|n| Table::of(catalog.get(n).expect("listed name is registered")))
        .collect()
}

/// A study task as a direct-manipulation transcript: the sheet it opens,
/// one gesture per line, and the sheet column that answers each SELECT
/// item of the task's SQL (in SELECT order).
pub struct TaskScript {
    pub task: QueryTask,
    pub sheet: &'static str,
    pub gestures: Vec<&'static str>,
    pub outputs: Vec<&'static str>,
}

/// The ten Sec. VII tasks as a user would perform them: one selection per
/// WHERE conjunct, one grouping per GROUP BY item, one aggregation per
/// aggregate, HAVING as a selection on the aggregate column, then the
/// ordering. Simple tasks also uncheck the columns the answer omits.
pub fn task_scripts() -> Vec<TaskScript> {
    let plan: [(&str, &[&str], &[&str]); 10] = [
        (
            "lineitem",
            &[
                "select l_shipdate <= 19980902",
                "group l_returnflag",
                "group l_linestatus",
                "agg sum l_quantity",
                "agg sum l_extendedprice",
                "agg avg l_quantity",
                "agg count l_orderkey",
            ],
            &[
                "l_returnflag",
                "l_linestatus",
                "Sum_l_quantity",
                "Sum_l_extendedprice",
                "Avg_l_quantity",
                "Count_l_orderkey",
            ],
        ),
        (
            "v_custsales",
            &[
                "select c_mktsegment = 'BUILDING'",
                "select o_orderdate < 19950315",
                "select l_shipdate > 19950315",
                "group l_orderkey",
                "agg sum l_revenue",
                "order Sum_l_revenue desc",
            ],
            &["l_orderkey", "Sum_l_revenue"],
        ),
        (
            "v_sales",
            &[
                "select r_name = 'ASIA'",
                "select l_shipdate >= 19940101",
                "select l_shipdate < 19950101",
                "group n_name",
                "agg sum l_revenue",
                "order Sum_l_revenue desc",
            ],
            &["n_name", "Sum_l_revenue"],
        ),
        (
            "v_lineitem",
            &[
                "select l_shipdate >= 19940101",
                "select l_shipdate < 19950101",
                "select l_discount >= 0.05",
                "select l_discount <= 0.07",
                "select l_quantity < 24",
                "agg sum l_revenue",
            ],
            &["Sum_l_revenue"],
        ),
        (
            "customer",
            &[
                "select c_acctbal > 5000",
                "order c_acctbal desc",
                "project c_custkey",
                "project c_nationkey",
                "project c_mktsegment",
            ],
            &["c_name", "c_acctbal"],
        ),
        (
            "v_custsales",
            &[
                "select l_returnflag = 'R'",
                "select o_orderdate >= 19931001",
                "select o_orderdate < 19940101",
                "group c_name",
                "agg sum l_revenue",
                "order Sum_l_revenue desc",
            ],
            &["c_name", "Sum_l_revenue"],
        ),
        (
            "orders",
            &[
                "select o_totalprice > 250000",
                "order o_totalprice desc",
                "project o_custkey",
                "project o_orderstatus",
                "project o_orderpriority",
            ],
            &["o_orderkey", "o_totalprice", "o_orderdate"],
        ),
        (
            "orders",
            &[
                "select o_orderdate >= 19930701",
                "select o_orderdate < 19931001",
                "group o_orderpriority",
                "agg count o_orderkey",
            ],
            &["o_orderpriority", "Count_o_orderkey"],
        ),
        (
            "v_partsupp",
            &[
                "group ps_partkey",
                "agg sum ps_value",
                "select Sum_ps_value > 500000",
                "order Sum_ps_value desc",
            ],
            &["ps_partkey", "Sum_ps_value"],
        ),
        (
            "part",
            &[
                "select p_type = 'SMALL PLATED TIN'",
                "select p_retailprice < 1200",
                "order p_retailprice asc",
                "project p_partkey",
                "project p_brand",
                "project p_type",
                "project p_size",
            ],
            &["p_name", "p_retailprice"],
        ),
    ];
    ssa_tpch::study_tasks()
        .into_iter()
        .zip(plan)
        .map(|(task, (sheet, gestures, outputs))| TaskScript {
            task,
            sheet,
            gestures: gestures.to_vec(),
            outputs: outputs.to_vec(),
        })
        .collect()
}

/// Rows in each `OrderFeed` append batch.
pub const FEED_BATCH_ROWS: usize = 100;

/// The live `orders` sheet (`initial_rows` feed rows) and the feed that
/// continues it. Customer keys span a scale-10 customer table.
pub fn order_feed(initial_rows: usize, seed: u64) -> (Table, OrderFeed) {
    let config = FeedConfig {
        rows_per_sec: 0.0,
        customers: 1500,
        first_orderkey: 0,
    };
    let mut feed = OrderFeed::new(config, seed);
    let relation = Relation::with_rows(
        "orders",
        ssa_tpch::schema::orders(),
        feed.batch(initial_rows),
    )
    .expect("feed rows match the orders schema");
    (Table::of(&relation), feed)
}

/// One append batch as a header-less CSV body.
pub fn feed_batch_csv(feed: &mut OrderFeed) -> String {
    let rows = feed.batch(FEED_BATCH_ROWS);
    let relation = Relation::with_rows("batch", ssa_tpch::schema::orders(), rows)
        .expect("feed rows match the orders schema");
    let text = csv::to_csv(&relation);
    match text.split_once('\n') {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}
