//! Seeded, deterministic TPC-H-style data generator.
//!
//! The paper used the TPC-H demonstration dataset; we generate an
//! equivalent synthetic instance. Generation is fully determined by
//! `(GenConfig, seed)`, so every figure in EXPERIMENTS.md regenerates
//! byte-identically.

use crate::schema;
use ssa_relation::rng::Rng;
use ssa_relation::{Catalog, Relation, Tuple, Value};

/// Table sizes. `scale(1.0)` approximates a 1-MB-class instance —
/// comfortably laptop-sized while exercising every code path; raise the
/// factor for benchmarking sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    pub customers: usize,
    pub orders: usize,
    /// Expected lineitems per order (actual count is 1..=2×this-1).
    pub lines_per_order: usize,
    pub parts: usize,
    pub suppliers: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig::scale(1.0)
    }
}

impl GenConfig {
    /// Proportional sizing. `factor = 1.0` gives 150 customers / 1500
    /// orders / ~6000 lineitems — the classic TPC-H ratios at 1/1000th of
    /// scale factor 1.
    pub fn scale(factor: f64) -> GenConfig {
        let f = |n: f64| ((n * factor).round() as usize).max(1);
        GenConfig {
            customers: f(150.0),
            orders: f(1500.0),
            lines_per_order: 4,
            parts: f(200.0),
            suppliers: f(10.0),
        }
    }

    /// A tiny instance for unit tests.
    pub fn tiny() -> GenConfig {
        GenConfig {
            customers: 10,
            orders: 30,
            lines_per_order: 3,
            parts: 15,
            suppliers: 3,
        }
    }
}

/// The generated database.
#[derive(Debug, Clone)]
pub struct TpchData {
    pub region: Relation,
    pub nation: Relation,
    pub supplier: Relation,
    pub customer: Relation,
    pub part: Relation,
    pub partsupp: Relation,
    pub orders: Relation,
    pub lineitem: Relation,
}

impl TpchData {
    /// Register every base table in a fresh catalog.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for rel in [
            &self.region,
            &self.nation,
            &self.supplier,
            &self.customer,
            &self.part,
            &self.partsupp,
            &self.orders,
            &self.lineitem,
        ] {
            c.register(rel.clone()).expect("table names are distinct");
        }
        c
    }

    pub fn total_rows(&self) -> usize {
        self.region.len()
            + self.nation.len()
            + self.supplier.len()
            + self.customer.len()
            + self.part.len()
            + self.partsupp.len()
            + self.orders.len()
            + self.lineitem.len()
    }
}

fn date(rng: &mut Rng) -> i64 {
    // Uniform over 1992-01-01 .. 1998-12-31, encoded YYYYMMDD.
    let year = rng.gen_range(1992..=1998);
    let month = rng.gen_range(1..=12);
    let day = rng.gen_range(1..=28);
    (year * 10000 + month * 100 + day) as i64
}

fn money(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo..hi) * 100.0).round() / 100.0
}

/// Generate a full database.
pub fn generate(config: &GenConfig, seed: u64) -> TpchData {
    let mut rng = Rng::seed_from_u64(seed);

    let mut region = Relation::new("region", schema::region());
    for (i, name) in schema::REGIONS.iter().enumerate() {
        region
            .insert(Tuple::new(vec![Value::Int(i as i64), Value::str(*name)]))
            .expect("region row");
    }

    let mut nation = Relation::new("nation", schema::nation());
    for (i, (name, r)) in schema::NATIONS.iter().enumerate() {
        nation
            .insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::str(*name),
                Value::Int(*r as i64),
            ]))
            .expect("nation row");
    }

    let mut supplier = Relation::new("supplier", schema::supplier());
    for i in 0..config.suppliers {
        supplier
            .insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::from(format!("Supplier#{i:05}")),
                Value::Int(rng.gen_range(0..25)),
                Value::Float(money(&mut rng, -999.0, 9999.0)),
            ]))
            .expect("supplier row");
    }

    let mut customer = Relation::new("customer", schema::customer());
    for i in 0..config.customers {
        customer
            .insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::from(format!("Customer#{i:06}")),
                Value::Int(rng.gen_range(0..25)),
                Value::str(schema::MKT_SEGMENTS[rng.gen_range(0..5usize)]),
                Value::Float(money(&mut rng, -999.0, 9999.0)),
            ]))
            .expect("customer row");
    }

    let mut part = Relation::new("part", schema::part());
    for i in 0..config.parts {
        part.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::from(format!("Part#{i:06}")),
            Value::from(format!("Brand#{}", rng.gen_range(1..=5))),
            Value::str(schema::PART_TYPES[rng.gen_range(0..schema::PART_TYPES.len())]),
            Value::Int(rng.gen_range(1..=50)),
            Value::Float(money(&mut rng, 900.0, 2000.0)),
        ]))
        .expect("part row");
    }

    let mut partsupp = Relation::new("partsupp", schema::partsupp());
    for p in 0..config.parts {
        // Each part supplied by up to 2 distinct suppliers.
        let first = rng.gen_range(0..config.suppliers);
        let n_sup = 2.min(config.suppliers);
        for k in 0..n_sup {
            let s = (first + k) % config.suppliers;
            partsupp
                .insert(Tuple::new(vec![
                    Value::Int(p as i64),
                    Value::Int(s as i64),
                    Value::Int(rng.gen_range(1..=9999)),
                    Value::Float(money(&mut rng, 1.0, 1000.0)),
                ]))
                .expect("partsupp row");
        }
    }

    let mut orders = Relation::new("orders", schema::orders());
    let mut lineitem = Relation::new("lineitem", schema::lineitem());
    for o in 0..config.orders {
        let orderdate = date(&mut rng);
        let n_lines = rng.gen_range(1..=(2 * config.lines_per_order - 1).max(1));
        let mut total = 0.0f64;
        for ln in 0..n_lines {
            let quantity = rng.gen_range(1..=50i64);
            let p = rng.gen_range(0..config.parts);
            let extended = money(&mut rng, 900.0, 2000.0) * quantity as f64;
            let extended = (extended * 100.0).round() / 100.0;
            let discount = (rng.gen_range(0..=10) as f64) / 100.0;
            let tax = (rng.gen_range(0..=8) as f64) / 100.0;
            // Ship 1..=121 days after order; approximate in date encoding.
            let shipdate = orderdate + rng.gen_range(1..=121i64);
            total += extended * (1.0 - discount);
            lineitem
                .insert(Tuple::new(vec![
                    Value::Int(o as i64),
                    Value::Int(p as i64),
                    Value::Int(rng.gen_range(0..config.suppliers) as i64),
                    Value::Int(ln as i64 + 1),
                    Value::Int(quantity),
                    Value::Float(extended),
                    Value::Float(discount),
                    Value::Float(tax),
                    Value::str(schema::RETURN_FLAGS[rng.gen_range(0..3usize)]),
                    Value::str(schema::LINE_STATUSES[rng.gen_range(0..2usize)]),
                    Value::Int(shipdate),
                    Value::str(schema::SHIP_MODES[rng.gen_range(0..7usize)]),
                ]))
                .expect("lineitem row");
        }
        orders
            .insert(Tuple::new(vec![
                Value::Int(o as i64),
                Value::Int(rng.gen_range(0..config.customers) as i64),
                Value::str(["O", "F", "P"][rng.gen_range(0..3usize)]),
                Value::Float((total * 100.0).round() / 100.0),
                Value::Int(orderdate),
                Value::str(schema::ORDER_PRIORITIES[rng.gen_range(0..5usize)]),
            ]))
            .expect("orders row");
    }

    TpchData {
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&GenConfig::tiny(), 42);
        let b = generate(&GenConfig::tiny(), 42);
        assert!(a.lineitem.multiset_eq(&b.lineitem));
        assert!(a.orders.multiset_eq(&b.orders));
        let c = generate(&GenConfig::tiny(), 43);
        assert!(!a.lineitem.multiset_eq(&c.lineitem));
    }

    #[test]
    fn sizes_follow_config() {
        let cfg = GenConfig::tiny();
        let d = generate(&cfg, 1);
        assert_eq!(d.customer.len(), cfg.customers);
        assert_eq!(d.orders.len(), cfg.orders);
        assert_eq!(d.part.len(), cfg.parts);
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert!(d.lineitem.len() >= cfg.orders);
    }

    #[test]
    fn foreign_keys_in_range() {
        let cfg = GenConfig::tiny();
        let d = generate(&cfg, 7);
        for t in d.orders.rows() {
            let Value::Int(ck) = &t[1] else { panic!() };
            assert!((0..cfg.customers as i64).contains(ck));
        }
        for t in d.lineitem.rows() {
            let Value::Int(ok) = &t[0] else { panic!() };
            assert!((0..cfg.orders as i64).contains(ok));
            let Value::Int(pk) = &t[1] else { panic!() };
            assert!((0..cfg.parts as i64).contains(pk));
        }
        for t in d.customer.rows() {
            let Value::Int(nk) = &t[2] else { panic!() };
            assert!((0..25).contains(nk));
        }
    }

    #[test]
    fn dates_are_valid_yyyymmdd() {
        let d = generate(&GenConfig::tiny(), 9);
        for t in d.orders.rows() {
            let Value::Int(date) = &t[4] else { panic!() };
            let (y, m, dd) = (date / 10000, (date / 100) % 100, date % 100);
            assert!((1992..=1998).contains(&y));
            assert!((1..=12).contains(&m));
            assert!((1..=28).contains(&dd));
        }
    }

    #[test]
    fn catalog_contains_all_tables() {
        let d = generate(&GenConfig::tiny(), 1);
        let c = d.catalog();
        assert_eq!(c.len(), 8);
        assert!(c.contains("lineitem"));
        assert!(c.contains("region"));
        assert!(d.total_rows() > 100);
    }

    #[test]
    fn discounts_bounded() {
        let d = generate(&GenConfig::tiny(), 3);
        for t in d.lineitem.rows() {
            let Value::Float(disc) = &t[6] else { panic!() };
            assert!((0.0..=0.10).contains(disc));
        }
    }
}
