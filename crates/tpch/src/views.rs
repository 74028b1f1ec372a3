//! Predefined views for the user study.
//!
//! "We predefined views for queries involving many joins so that users
//! always query a single table" (Sec. VII-A.1). Views are materialized
//! joins with the revenue formula (`l_extendedprice × (1 − l_discount)`)
//! pre-computed, since core single-block SQL aggregates over columns.

use crate::gen::TpchData;
use ssa_relation::ops;
use ssa_relation::{Catalog, Expr, Relation, Result};

/// `lineitem` extended with `l_revenue`.
pub fn v_lineitem(data: &TpchData) -> Result<Relation> {
    let revenue = Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")));
    let mut r = ops::extend(&data.lineitem, "l_revenue", &revenue)?;
    r.set_name("v_lineitem");
    Ok(r)
}

/// `lineitem ⋈ orders ⋈ customer`, with `l_revenue` — the single-table
/// stand-in for the Q3/Q10-family tasks.
pub fn v_custsales(data: &TpchData) -> Result<Relation> {
    let lo = ops::join(
        &data.lineitem,
        &data.orders,
        &Expr::col("l_orderkey").eq(Expr::col("o_orderkey")),
    )?;
    let loc = ops::join(
        &lo,
        &data.customer,
        &Expr::col("o_custkey").eq(Expr::col("c_custkey")),
    )?;
    let revenue = Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")));
    let mut r = ops::extend(&loc, "l_revenue", &revenue)?;
    r.set_name("v_custsales");
    Ok(r)
}

/// `lineitem ⋈ supplier ⋈ nation ⋈ region`, with `l_revenue` — the
/// single-table stand-in for the Q5-family task (supplier-side geography).
pub fn v_sales(data: &TpchData) -> Result<Relation> {
    let ls = ops::join(
        &data.lineitem,
        &data.supplier,
        &Expr::col("l_suppkey").eq(Expr::col("s_suppkey")),
    )?;
    let lsn = ops::join(
        &ls,
        &data.nation,
        &Expr::col("s_nationkey").eq(Expr::col("n_nationkey")),
    )?;
    let lsnr = ops::join(
        &lsn,
        &data.region,
        &Expr::col("n_regionkey").eq(Expr::col("r_regionkey")),
    )?;
    let revenue = Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")));
    let mut r = ops::extend(&lsnr, "l_revenue", &revenue)?;
    r.set_name("v_sales");
    Ok(r)
}

/// `partsupp` extended with `ps_value = ps_supplycost × ps_availqty`
/// (the Q11-family task).
pub fn v_partsupp(data: &TpchData) -> Result<Relation> {
    let value = Expr::col("ps_supplycost").mul(Expr::col("ps_availqty"));
    let mut r = ops::extend(&data.partsupp, "ps_value", &value)?;
    r.set_name("v_partsupp");
    Ok(r)
}

/// Register the base tables *and* all study views in one catalog — the
/// database exactly as a study participant saw it.
pub fn study_catalog(data: &TpchData) -> Result<Catalog> {
    let mut c = data.catalog();
    c.register(v_lineitem(data)?)?;
    c.register(v_custsales(data)?)?;
    c.register(v_sales(data)?)?;
    c.register(v_partsupp(data)?)?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use ssa_relation::Value;

    fn data() -> TpchData {
        generate(&GenConfig::tiny(), 11)
    }

    #[test]
    fn v_lineitem_revenue_matches_formula() {
        let d = data();
        let v = v_lineitem(&d).unwrap();
        assert_eq!(v.len(), d.lineitem.len());
        for t in v.rows().iter().take(20) {
            let sch = v.schema();
            let ext = t[sch.index_of("l_extendedprice").unwrap()]
                .as_f64()
                .unwrap();
            let disc = t[sch.index_of("l_discount").unwrap()].as_f64().unwrap();
            let rev = t[sch.index_of("l_revenue").unwrap()].as_f64().unwrap();
            assert!((rev - ext * (1.0 - disc)).abs() < 1e-9);
        }
    }

    #[test]
    fn v_custsales_joins_every_lineitem() {
        let d = data();
        let v = v_custsales(&d).unwrap();
        // every lineitem has exactly one order and one customer
        assert_eq!(v.len(), d.lineitem.len());
        assert!(v.schema().contains("c_name"));
        assert!(v.schema().contains("o_orderdate"));
        assert!(v.schema().contains("l_revenue"));
    }

    #[test]
    fn v_sales_carries_geography() {
        let d = data();
        let v = v_sales(&d).unwrap();
        assert_eq!(v.len(), d.lineitem.len());
        assert!(v.schema().contains("n_name"));
        assert!(v.schema().contains("r_name"));
        // region names are the five TPC-H regions
        let names = v.column_values("r_name").unwrap();
        assert!(names
            .iter()
            .all(|n| matches!(n, Value::Str(s) if crate::schema::REGIONS.contains(&s.as_str()))));
    }

    #[test]
    fn v_partsupp_value() {
        let d = data();
        let v = v_partsupp(&d).unwrap();
        assert_eq!(v.len(), d.partsupp.len());
        let sch = v.schema();
        for t in v.rows().iter().take(10) {
            let cost = t[sch.index_of("ps_supplycost").unwrap()].as_f64().unwrap();
            let qty = t[sch.index_of("ps_availqty").unwrap()].as_f64().unwrap();
            let val = t[sch.index_of("ps_value").unwrap()].as_f64().unwrap();
            assert!((val - cost * qty).abs() < 1e-6);
        }
    }

    #[test]
    fn study_catalog_has_tables_and_views() {
        let c = study_catalog(&data()).unwrap();
        assert_eq!(c.len(), 12);
        for name in [
            "lineitem",
            "v_lineitem",
            "v_custsales",
            "v_sales",
            "v_partsupp",
        ] {
            assert!(c.contains(name), "missing {name}");
        }
    }
}
