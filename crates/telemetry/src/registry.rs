//! Scrape snapshots and their exposition.
//!
//! A [`Snapshot`] holds values its caller has already read (counters,
//! gauges, histogram snapshots and labelled gauge families, each under
//! its metric name) and renders them to Prometheus text exposition or a
//! small JSON document.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;

/// The cells of one labelled gauge family at scrape time: one `f64`
/// cell per value of a single integer label (a node id, say), exposed
/// as `name{label="value"}` samples under one metric name. Cells are
/// kept in ascending label order, so a lookup is one binary search.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    label: String,
    cells: Vec<(u64, f64)>,
}

impl FamilySnapshot {
    /// A family keyed by the label `label` holding `cells`, given as
    /// `(label value, value)` pairs. Input in ascending label order is
    /// kept as is; other input is sorted first, and a repeated label
    /// value keeps its first value.
    #[must_use]
    pub fn new(label: &str, mut cells: Vec<(u64, f64)>) -> Self {
        // Linear on input that is already sorted.
        cells.sort_by_key(|&(label, _)| label);
        cells.dedup_by_key(|&mut (label, _)| label);
        Self { label: label.to_string(), cells }
    }

    /// The label name every cell is keyed by (e.g. `node`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Every `(label value, value)` cell, in ascending label order.
    #[must_use]
    pub fn cells(&self) -> &[(u64, f64)] {
        &self.cells
    }

    /// The value of the cell labelled `label_value`, if present.
    #[must_use]
    pub fn get(&self, label_value: u64) -> Option<f64> {
        self.cells.binary_search_by_key(&label_value, |&(l, _)| l).ok().map(|i| self.cells[i].1)
    }
}

/// An immutable scrape: counters, gauges, histogram snapshots and gauge
/// families, each under its metric name and rendered in the order
/// given.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a snapshot carries the scraped data; query or render it"]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
    families: Vec<(String, FamilySnapshot)>,
}

impl Snapshot {
    /// A snapshot of the series given, each list in the order it
    /// renders.
    pub fn new(
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, f64)>,
        histograms: Vec<(String, HistogramSnapshot)>,
        families: Vec<(String, FamilySnapshot)>,
    ) -> Self {
        Self { counters, gauges, histograms, families }
    }

    /// Value of the counter named `name`, if any.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All counter names and values, in order.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauge names and values, in order.
    #[must_use]
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// All histogram names and snapshots, in order.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Snapshot of the gauge family named `name`.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// All gauge-family names and snapshots, in order.
    #[must_use]
    pub fn families(&self) -> &[(String, FamilySnapshot)] {
        &self.families
    }

    /// Renders the snapshot in Prometheus text exposition format.
    /// Histograms render as summaries (p50/p90/p99 quantiles plus
    /// `_sum`/`_count`/`_max` samples). Each gauge family renders after
    /// the plain gauges as one `# TYPE` line and one
    /// `name{label="value"}` sample per cell.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        // Writing into a `String` cannot fail, so `write!` results are
        // ignored throughout.
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, f) in &self.families {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (value, v) in &f.cells {
                let _ = writeln!(out, "{name}{{{}=\"{value}\"}} {v}", f.label);
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (label, q) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {q}");
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
            let _ = writeln!(out, "{name}_max {}", h.max());
        }
        out
    }

    /// Renders the snapshot as a small JSON document with `counters`,
    /// `gauges`, `families` and `histograms` objects. A family is
    /// `{"label":…,"cells":{"<label value>":value,…}}`. Histograms
    /// carry count, sum, mean, max, the three standard percentiles, and
    /// a sparse `buckets` array. Each populated bucket reports its
    /// index, its exact `[lo, hi)` boundaries, its count, and — when a
    /// traced observation landed there — the hex trace id of its
    /// exemplar, so a client can resolve an exemplar's bucket without
    /// knowing the layout constants. Non-finite gauge and cell values
    /// render as `null`; instrument and label names pass through
    /// [`json_escape`](crate::json_escape), so a quote or control
    /// character in a metric name cannot corrupt the document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use crate::histogram::{bucket_lower_bound, bucket_upper_bound, OVERFLOW_BUCKET};
        // Writing into a `String` cannot fail, so `write!` results are
        // ignored throughout.
        fn num(out: &mut String, v: f64) {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        fn key(out: &mut String, i: usize, name: &str) {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::json_escape_into(out, name);
            out.push_str("\":");
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            key(&mut out, i, n);
            let _ = write!(out, "{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            key(&mut out, i, n);
            num(&mut out, *v);
        }
        out.push_str("},\"families\":{");
        for (i, (n, f)) in self.families.iter().enumerate() {
            key(&mut out, i, n);
            out.push_str("{\"label\":\"");
            crate::json_escape_into(&mut out, &f.label);
            out.push_str("\",\"cells\":{");
            for (j, &(value, v)) in f.cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{value}\":");
                num(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            key(&mut out, i, n);
            let _ = write!(out, "{{\"count\":{}", h.count());
            for (field, v) in [
                ("sum", h.sum()),
                ("mean", h.mean()),
                ("max", h.max()),
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
            ] {
                let _ = write!(out, ",\"{field}\":");
                num(&mut out, v);
            }
            out.push_str(",\"buckets\":[");
            let mut any = false;
            for b in 0..=OVERFLOW_BUCKET {
                let count = h.bucket(b);
                if count == 0 {
                    continue;
                }
                if any {
                    out.push(',');
                }
                any = true;
                let _ = write!(out, "{{\"index\":{b},\"lo\":");
                num(&mut out, bucket_lower_bound(b));
                out.push_str(",\"hi\":");
                num(&mut out, bucket_upper_bound(b));
                let _ = write!(out, ",\"count\":{count},\"exemplar\":");
                match h.exemplar(b) {
                    Some(id) => {
                        let _ = write!(out, "\"{id:016x}\"");
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn named<T>(series: Vec<(&str, T)>) -> Vec<(String, T)> {
        series.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
    }

    fn sample_snapshot() -> Snapshot {
        let mut response = HistogramSnapshot::empty();
        for v in [0.1, 0.2, 0.4] {
            response.record(v);
        }
        // Unsorted, with node 7 given twice: the family keeps the first.
        let phi = FamilySnapshot::new("node", vec![(12, f64::NAN), (0, 0.5), (7, 1.25), (7, 9.0)]);
        Snapshot::new(
            named(vec![("gtlb_jobs_total", 12)]),
            named(vec![("gtlb_depth", 3.5), ("gtlb_utilization", 0.5)]),
            named(vec![("gtlb_response_seconds", response)]),
            named(vec![("gtlb_node_phi", phi)]),
        )
    }

    #[test]
    fn snapshot_merges_every_instrument() {
        let s = sample_snapshot();
        assert_eq!(s.counter("gtlb_jobs_total"), Some(12));
        assert_eq!(s.gauge("gtlb_depth"), Some(3.5));
        assert_eq!(s.gauge("gtlb_utilization"), Some(0.5));
        assert_eq!(s.histogram("gtlb_response_seconds").unwrap().count(), 3);
        let phi = s.family("gtlb_node_phi").unwrap();
        assert_eq!((phi.label(), phi.get(7), phi.get(8)), ("node", Some(1.25), None));
        let labels: Vec<u64> = phi.cells().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, [0, 7, 12], "cells ascend, one per label value");
        assert_eq!(s.counter("missing"), None);
        assert!(s.family("missing").is_none());
        // Family cells are not gauges: a gauge count stays independent
        // of how many label values a family holds.
        assert_eq!(s.gauges().len(), 2);
    }

    #[test]
    fn prometheus_text_has_types_and_samples() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE gtlb_jobs_total counter"));
        assert!(text.contains("gtlb_jobs_total 12"));
        assert!(text.contains("# TYPE gtlb_depth gauge"));
        assert!(text.contains("# TYPE gtlb_response_seconds summary"));
        assert!(text.contains("gtlb_response_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("gtlb_response_seconds_count 3"));
        // A family is one TYPE line, then one labelled sample per cell,
        // between the plain gauges and the histograms.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.iter().filter(|l| **l == "# TYPE gtlb_node_phi gauge").count(), 1);
        let samples: Vec<&str> =
            lines.iter().copied().filter(|l| l.starts_with("gtlb_node_phi")).collect();
        assert_eq!(
            samples,
            [
                "gtlb_node_phi{node=\"0\"} 0.5",
                "gtlb_node_phi{node=\"7\"} 1.25",
                "gtlb_node_phi{node=\"12\"} NaN"
            ]
        );
        let family_at = text.find("# TYPE gtlb_node_phi gauge").unwrap();
        assert!(text.find("# TYPE gtlb_utilization gauge").unwrap() < family_at);
        assert!(family_at < text.find("# TYPE gtlb_response_seconds summary").unwrap());
    }

    #[test]
    fn json_escapes_hostile_instrument_names() {
        let s = Snapshot::new(named(vec![("evil\"name\nwith\\stuff", 3)]), vec![], vec![], vec![]);
        let json = s.to_json();
        assert!(json.contains("\"evil\\\"name\\nwith\\\\stuff\":3"), "got {json}");
        assert!(!json.contains('\n'), "raw newline leaked into {json:?}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_exposes_bucket_boundaries_and_exemplars() {
        use crate::histogram::bucket_index;
        let h = Histogram::new();
        h.record(0.1);
        h.record_with_exemplar(0.4, 0xAB);
        let s = Snapshot::new(
            vec![],
            vec![],
            named(vec![("gtlb_response_seconds", h.snapshot())]),
            vec![],
        );
        let json = s.to_json();
        let b = bucket_index(0.4);
        assert!(json.contains("\"buckets\":["), "{json}");
        assert!(json.contains(&format!("\"index\":{b}")), "{json}");
        assert!(
            json.contains(&format!("\"lo\":{}", crate::bucket_lower_bound(b))),
            "boundaries present: {json}"
        );
        assert!(json.contains("\"exemplar\":\"00000000000000ab\""), "{json}");
        assert!(json.contains("\"exemplar\":null"), "untraced bucket: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Prometheus text is unchanged by the bucket exposition.
        assert!(!s.to_prometheus().contains("bucket"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"gtlb_jobs_total\":12"));
        assert!(json.contains("\"count\":3"));
        assert!(
            json.contains(
                r#""families":{"gtlb_node_phi":{"label":"node","cells":{"0":0.5,"7":1.25,"12":null}}},"histograms":"#
            ),
            "a NaN cell renders as null: {json}"
        );
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces in {json}"
        );
    }
}
