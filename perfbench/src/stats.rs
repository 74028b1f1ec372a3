//! Percentiles, metric records and the result line.

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The `"metrics": {...}` object body.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// A JSON number with every digit the value has.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Requests attempted and failed, and why the first few failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// A check outside the request stream: counts as one attempted
    /// operation that failed when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn metrics_json_keeps_digits() {
        let mut m = Metrics::default();
        m.put("a", 1.25, "ms");
        m.put("b", 3.0, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"s\"}}"
        );
    }
}
