//! Event counters and histograms for simulator statistics.

use crate::json::{Json, Reader};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A named bag of monotonically increasing event counters.
///
/// Clones share one map, copied only when a clone is added to: a run's
/// record and its outcome's statistics hold the same counters.
///
/// # Examples
///
/// ```
/// use lf_stats::Counters;
///
/// let mut c = Counters::new();
/// c.add("commits", 8);
/// c.inc("squashes");
/// assert_eq!(c.get("commits"), 8);
/// assert_eq!(c.get("squashes"), 1);
/// assert_eq!(c.get("missing"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: Arc<BTreeMap<String, u64>>,
}

impl Counters {
    /// Creates an empty counter bag.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent. Only the
    /// first add of a name allocates its key, and only the first add to a
    /// shared clone copies the map.
    pub fn add(&mut self, name: &str, n: u64) {
        let map = Arc::make_mut(&mut self.map);
        if let Some(v) = map.get_mut(name) {
            *v += n;
        } else {
            map.insert(name.to_string(), n);
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in ascending name order.
    ///
    /// The ordering is a guarantee, not an implementation detail: text and
    /// JSON dumps, `merge`, and golden-file tests all rely on two bags with
    /// the same contents iterating identically.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another counter bag into this one by summing.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// The ratio `num / den` of two counters, or 0.0 if the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0 {
            0.0
        } else {
            self.get(num) as f64 / d as f64
        }
    }

    /// Reads an object of counts by name; `Ok(None)` if it is not an
    /// object or a count is not a `u64`. A name given twice keeps its last
    /// count, as it would in a parsed [`Json`] object. `Err` is a syntax
    /// error.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Option<Counters>, String> {
        let (mut map, mut mistyped) = (BTreeMap::new(), Vec::new());
        let is_object = r.object(|r, name| {
            mistyped.retain(|m| *m != name);
            match r.u64()? {
                Some(n) => {
                    map.insert(name.into_owned(), n);
                }
                None => mistyped.push(name),
            }
            Ok(())
        })?;
        Ok((is_object && mistyped.is_empty()).then_some(Counters { map: Arc::new(map) }))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:40} {v}")?;
        }
        Ok(())
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` (of `n`) covers `[i * width, (i + 1) * width)`; the final
/// bucket additionally absorbs all larger samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `buckets == 0`.
    pub fn new(width: u64, buckets: usize) -> Histogram {
        assert!(width > 0 && buckets > 0);
        Histogram { width, buckets: vec![0; buckets], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` copies of `sample` at once, exactly as `n` calls of
    /// [`Histogram::record`] would (`n == 0` records nothing).
    pub fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = ((sample / self.width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += sample * n;
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The configured bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Approximate `p`-th percentile (`p` in `[0, 1]`), resolved to the
    /// upper edge of the bucket containing that rank. The final bucket is
    /// open-ended, so samples there report the observed max instead of a
    /// bucket edge. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == self.buckets.len() - 1 {
                    return self.max;
                }
                return (i as u64 + 1) * self.width;
            }
        }
        self.max
    }

    /// Fraction of samples at or above `threshold`.
    pub fn frac_at_least(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let first = (threshold / self.width) as usize;
        let n: u64 = self.buckets.iter().skip(first.min(self.buckets.len() - 1)).sum();
        n as f64 / self.count as f64
    }

    /// Serializes the histogram's state: bucket width, bucket counts, and
    /// the sample sum and maximum (the count is the buckets' sum). Inverse
    /// of [`Histogram::read_json`]; every value is far below 2^53.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("width", self.width);
        j.set("buckets", Json::from(self.buckets.clone()));
        j.set("sum", self.sum);
        j.set("max", self.max);
        j
    }

    /// Reads a [`Histogram::to_json`] document; `Ok(None)` if a field is
    /// missing or mistyped, or the shape is not a valid histogram (zero
    /// width, no buckets). `Err` is a syntax error.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Option<Histogram>, String> {
        let (mut width, mut buckets, mut sum, mut max) = (None, None, None, None);
        r.object(|r, key| {
            match &*key {
                "width" => width = r.u64()?,
                "buckets" => buckets = r.u64s()?,
                "sum" => sum = r.u64()?,
                "max" => max = r.u64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let (Some(width), Some(buckets), Some(sum), Some(max)) = (width, buckets, sum, max) else {
            return Ok(None);
        };
        if width == 0 || buckets.is_empty() {
            return Ok(None);
        }
        let count = buckets.iter().sum();
        Ok(Some(Histogram { width, buckets, count, sum, max }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clone shares its original's map until one of them is added to,
    /// and then neither sees the other's counts.
    #[test]
    fn clones_share_their_counts_until_one_is_added_to() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.map, &b.map), "a clone copies no map");
        b.add("x", 2);
        b.add("y", 1);
        a.add("z", 5);
        assert_eq!([a.get("x"), a.get("y"), a.get("z")], [1, 0, 5]);
        assert_eq!([b.get("x"), b.get("y"), b.get("z")], [3, 1, 0]);
        assert_eq!(b.iter().collect::<Vec<_>>(), [("x", 3), ("y", 1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn counters_merge_and_ratio() {
        let mut a = Counters::new();
        a.add("x", 3);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert!((a.ratio("y", "x") - 0.8).abs() < 1e-12);
        assert_eq!(a.ratio("x", "zero"), 0.0);
    }

    #[test]
    fn counters_read_as_a_parsed_object_holds_them() {
        let read = |text: &str| {
            let mut r = Reader::new(text);
            let c = Counters::read_json(&mut r).expect("well-formed JSON");
            r.finish().expect("one document");
            c
        };
        let mut c = Counters::new();
        c.add("l2_accesses", 77);
        c.add("weird \"name\"\n", 3);
        let mut j = Json::obj();
        for (name, n) in c.iter() {
            j.set(name, n);
        }
        assert_eq!(read(&j.to_string_pretty()), Some(c));
        assert_eq!(read("{}"), Some(Counters::new()));
        assert_eq!(read("[]"), None, "counters are an object");
        assert_eq!(read(r#"{"a": 1, "b": -1}"#), None, "every count is a u64");
        // A repeated name keeps its last count, whatever came before it.
        let last =
            read(r#"{"b": 2, "a": "x", "b": 5, "a": 1}"#).expect("the last counts are valid");
        assert_eq!(last.iter().collect::<Vec<_>>(), [("a", 1), ("b", 5)]);
        assert_eq!(read(r#"{"a": 1, "a": null}"#), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 4);
        for s in [0, 9, 10, 39, 40, 1000] {
            h.record(s);
        }
        assert_eq!(h.buckets(), &[2, 1, 0, 3]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut c = Counters::new();
        for name in ["zeta", "alpha", "mid"] {
            c.inc(name);
        }
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.frac_at_least(0), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::new(10, 4);
        h.record(17);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 17.0);
        assert_eq!(h.max(), 17);
        // 17 lands in bucket [10, 20): every percentile resolves to its
        // upper edge.
        assert_eq!(h.percentile(0.0), 20);
        assert_eq!(h.percentile(0.5), 20);
        assert_eq!(h.percentile(1.0), 20);
        assert_eq!(h.frac_at_least(10), 1.0);
        assert_eq!(h.frac_at_least(20), 0.0);
    }

    #[test]
    fn overflow_samples_land_in_last_bucket_and_report_observed_max() {
        let mut h = Histogram::new(10, 4);
        for s in [5, 5, 5, 500] {
            h.record(s);
        }
        assert_eq!(h.buckets(), &[3, 0, 0, 1]);
        // p99 falls in the open-ended final bucket -> observed max, not a
        // fabricated bucket edge.
        assert_eq!(h.percentile(0.99), 500);
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.max(), 500);
    }

    #[test]
    fn percentiles_track_rank_across_buckets() {
        let mut h = Histogram::new(1, 16);
        for s in 0..10 {
            h.record(s);
        }
        assert_eq!(h.percentile(0.1), 1);
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(0.9), 9);
        assert_eq!(h.percentile(1.0), 10);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        // Includes samples past the clamped top bucket and a zero count.
        let runs = [(3, 4), (27, 2), (5000, 3), (12, 0), (0, 1)];
        let mut each = Histogram::new(10, 3);
        let mut bulk = Histogram::new(10, 3);
        for (sample, n) in runs {
            (0..n).for_each(|_| each.record(sample));
            bulk.record_n(sample, n);
        }
        assert_eq!(bulk, each);
        assert_eq!(bulk.max(), 5000);
        let mut untouched = Histogram::new(10, 3);
        untouched.record_n(99, 0);
        assert_eq!(untouched, Histogram::new(10, 3), "n = 0 leaves max alone");
    }

    #[test]
    fn histogram_json_round_trips() {
        let read = |text: &str| {
            let mut r = Reader::new(text);
            let h = Histogram::read_json(&mut r).expect("well-formed JSON");
            r.finish().expect("one document");
            h
        };
        let mut h = Histogram::new(4, 5);
        for s in [0, 3, 9, 100] {
            h.record(s);
        }
        assert_eq!(read(&h.to_json().to_string_pretty()), Some(h));
        assert_eq!(read("{}"), None);
        assert_eq!(read("[1, 2]"), None, "a histogram is an object");
        let mut unknown = Histogram::new(2, 3).to_json();
        unknown.set("note", Json::Arr(vec![Json::Null, "x".into()]));
        assert_eq!(read(&unknown.to_string_compact()), Some(Histogram::new(2, 3)));
        let mut empty = Histogram::new(1, 1).to_json();
        empty.set("buckets", Json::Arr(Vec::new()));
        assert_eq!(read(&empty.to_string_compact()), None, "a histogram has a bucket");
        let mut flat = Histogram::new(1, 1).to_json();
        flat.set("width", 0u64);
        assert_eq!(read(&flat.to_string_compact()), None, "a bucket has a width");
        let mut mistyped = Histogram::new(1, 2).to_json();
        mistyped.set("buckets", Json::Arr(vec![1u64.into(), "2".into()]));
        assert_eq!(read(&mistyped.to_string_compact()), None, "every bucket is a count");
    }

    #[test]
    fn histogram_mean_and_tail() {
        let mut h = Histogram::new(1, 8);
        for s in [1, 2, 3, 4] {
            h.record(s);
        }
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert!((h.frac_at_least(3) - 0.5).abs() < 1e-12);
    }
}
