//! Streaming order feed: a seeded generator that emits `orders`-shaped
//! rows at a configurable rate, for driving the streaming base-data
//! delta paths (`Spreadsheet::append_rows`) the way a live ticker would.
//!
//! Like [`crate::gen`], the feed is fully determined by its config and
//! seed — replaying a session replays the identical row sequence. The
//! feed does not sleep: callers own the clock and ask for "everything
//! due by now" via [`OrderFeed::tick`], which makes the generator usable
//! from benches (simulated time) and servers (wall time) alike.

use crate::schema;
use ssa_relation::rng::Rng;
use ssa_relation::{Tuple, Value};

/// Feed shape and rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedConfig {
    /// Rows emitted per second of feed time (used by [`OrderFeed::tick`];
    /// direct [`OrderFeed::batch`] calls ignore it).
    pub rows_per_sec: f64,
    /// Customer-key range the generated orders reference.
    pub customers: usize,
    /// Order key of the first emitted row (continue an existing table by
    /// passing its length).
    pub first_orderkey: i64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            rows_per_sec: 100.0,
            customers: 150,
            first_orderkey: 0,
        }
    }
}

/// A deterministic stream of `orders` rows.
#[derive(Debug, Clone)]
pub struct OrderFeed {
    config: FeedConfig,
    rng: Rng,
    next_orderkey: i64,
    /// Fractional rows owed from previous ticks, so a 2.5-rows/sec feed
    /// ticked every second alternates 2 and 3 rows instead of losing the
    /// halves.
    carry: f64,
}

impl OrderFeed {
    pub fn new(config: FeedConfig, seed: u64) -> OrderFeed {
        OrderFeed {
            next_orderkey: config.first_orderkey,
            config,
            rng: Rng::seed_from_u64(seed),
            carry: 0.0,
        }
    }

    /// The order key the next emitted row will carry.
    pub fn next_orderkey(&self) -> i64 {
        self.next_orderkey
    }

    /// Emit one row, shaped exactly like [`schema::orders`]:
    /// `(orderkey, custkey, orderstatus, totalprice, orderdate, orderpriority)`.
    pub fn next_order(&mut self) -> Tuple {
        let rng = &mut self.rng;
        let year = rng.gen_range(1992..=1998);
        let month = rng.gen_range(1..=12);
        let day = rng.gen_range(1..=28);
        let orderdate = (year * 10000 + month * 100 + day) as i64;
        let total = {
            let raw = rng.gen_range(900.0..180_000.0);
            (raw * 100.0).round() / 100.0
        };
        let key = self.next_orderkey;
        self.next_orderkey += 1;
        Tuple::new(vec![
            Value::Int(key),
            Value::Int(rng.gen_range(0..self.config.customers.max(1)) as i64),
            Value::str(["O", "F", "P"][rng.gen_range(0..3usize)]),
            Value::Float(total),
            Value::Int(orderdate),
            Value::str(schema::ORDER_PRIORITIES[rng.gen_range(0..5usize)]),
        ])
    }

    /// Emit exactly `n` rows.
    pub fn batch(&mut self, n: usize) -> Vec<Tuple> {
        (0..n).map(|_| self.next_order()).collect()
    }

    /// Emit every row due after `elapsed_secs` of feed time at the
    /// configured rate, carrying fractional rows to the next tick.
    pub fn tick(&mut self, elapsed_secs: f64) -> Vec<Tuple> {
        let due = self.carry + self.config.rows_per_sec * elapsed_secs.max(0.0);
        let n = due.floor().max(0.0) as usize;
        self.carry = due - n as f64;
        self.batch(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_relation::Relation;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = OrderFeed::new(FeedConfig::default(), 42);
        let mut b = OrderFeed::new(FeedConfig::default(), 42);
        assert_eq!(a.batch(10), b.batch(10));
        let mut c = OrderFeed::new(FeedConfig::default(), 43);
        assert_ne!(a.batch(10), c.batch(10));
    }

    #[test]
    fn rows_match_orders_schema() {
        let mut feed = OrderFeed::new(FeedConfig::default(), 7);
        let mut orders = Relation::new("orders", schema::orders());
        orders.append_rows(feed.batch(25)).unwrap();
        assert_eq!(orders.len(), 25);
        // Order keys are sequential from the configured start.
        let Value::Int(first) = &orders.rows()[0][0] else {
            panic!("orderkey must be Int");
        };
        assert_eq!(*first, 0);
        assert_eq!(feed.next_orderkey(), 25);
    }

    #[test]
    fn tick_respects_rate_with_carry() {
        let mut feed = OrderFeed::new(
            FeedConfig {
                rows_per_sec: 2.5,
                ..FeedConfig::default()
            },
            1,
        );
        let counts: Vec<usize> = (0..4).map(|_| feed.tick(1.0).len()).collect();
        // 2.5 rows/sec over 4 one-second ticks = exactly 10 rows.
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c == 2 || c == 3));
    }

    #[test]
    fn first_orderkey_continues_a_table() {
        let mut feed = OrderFeed::new(
            FeedConfig {
                first_orderkey: 1500,
                ..FeedConfig::default()
            },
            1,
        );
        let Value::Int(k) = *feed.next_order().get(0) else {
            panic!()
        };
        assert_eq!(k, 1500);
    }
}
