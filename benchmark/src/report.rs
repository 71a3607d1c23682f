//! What one run reports: the metric values, the output checks, and the
//! host-noise guard, rendered as the driver's one-line result and as the
//! fuller per-run record `results.json` is assembled from.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::socket_run::Sliced;
use crate::stats::{spread, Spread};
use std::fmt::Write as _;

/// One reported value. `iqr`, `n`, `slices` and `note` go into the run
/// record only; the driver's line carries `value` and `unit`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Distance between the quartiles of the trials or slices behind the
    /// value.
    pub iqr: Option<f64>,
    pub n: Option<usize>,
    /// The same metric over each slice of the window.
    pub slices: Option<Vec<f64>>,
    pub note: Option<String>,
}

impl Metric {
    pub fn plain(name: &'static str, value: f64) -> Self {
        Metric { name, value, iqr: None, n: None, slices: None, note: None }
    }

    pub fn spread(name: &'static str, s: Spread) -> Self {
        Metric { iqr: Some(s.iqr), n: Some(s.n), ..Metric::plain(name, s.median) }
    }

    /// A window value with its per-slice values, each times `scale`.
    pub fn sliced(name: &'static str, s: &Sliced, scale: f64) -> Self {
        let slices: Vec<f64> = s.slices.iter().map(|v| v * scale).collect();
        Metric {
            iqr: Some(spread(&slices).iqr),
            n: Some(s.n),
            slices: Some(slices),
            ..Metric::plain(name, s.value * scale)
        }
    }

    pub fn with_note(mut self, note: String) -> Self {
        self.note = Some(note);
        self
    }
}

/// One output check with what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a run reads about its host, once before and once after: the fixed
/// SHA-1-over-64-MiB spin and how late a sleeping thread wakes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProbes {
    pub calib_ms: f64,
    pub wake_us: f64,
}

/// A calibration drift above this marks the run noisy.
pub const NOISY_DRIFT_PCT: f64 = 10.0;

/// Everything one `--workload … --trace …` run produced.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: u64,
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// The host probes before and after the run.
    pub host: (HostProbes, HostProbes),
    pub wall_s: f64,
}

/// JSON has no NaN or infinity; a reading that degenerate is reported as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Record {
    /// `(name, unit)` of every metric this kind of run must emit, in
    /// declaration order.
    fn declared(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The emitted metrics in declaration order with their units, or what
    /// is missing or undeclared.
    pub fn ordered(&self) -> Result<Vec<(&Metric, &'static str)>, String> {
        let declared = self.declared();
        let mut out = Vec::with_capacity(declared.len());
        for (name, unit) in &declared {
            let mut hits = self.metrics.iter().filter(|m| m.name == *name);
            match (hits.next(), hits.next()) {
                (Some(metric), None) => out.push((metric, *unit)),
                (None, _) => return Err(format!("declared metric {name} was not emitted")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was emitted twice")),
            }
        }
        match self.metrics.iter().find(|m| !declared.iter().any(|(name, _)| *name == m.name)) {
            Some(extra) => Err(format!("metric {} is not declared in BENCHMARK.json", extra.name)),
            None => Ok(out),
        }
    }

    pub fn calib_drift_pct(&self) -> f64 {
        let (before, after) = (self.host.0.calib_ms, self.host.1.calib_ms);
        (after - before).abs() * 100.0 / before.max(f64::MIN_POSITIVE)
    }

    /// The host disturbed the run enough that its numbers resolve nothing.
    pub fn noisy(&self) -> bool {
        self.calib_drift_pct() > NOISY_DRIFT_PCT
    }

    /// Every check passed and no transaction failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .ordered()?
            .iter()
            .map(|(m, unit)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.name, num(m.value))
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The full record, one JSON object on one line.
    pub fn to_json(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .ordered()?
            .iter()
            .map(|(m, unit)| {
                let mut s =
                    format!("\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"", m.name, num(m.value));
                if let Some(iqr) = m.iqr {
                    let _ = write!(s, ", \"iqr\": {}", num(iqr));
                }
                if let Some(n) = m.n {
                    let _ = write!(s, ", \"n\": {n}");
                }
                if let Some(slices) = &m.slices {
                    let values: Vec<String> = slices.iter().map(|v| num(*v)).collect();
                    let _ = write!(s, ", \"slices\": [{}]", values.join(", "));
                }
                if let Some(note) = &m.note {
                    let _ = write!(s, ", \"note\": {}", json_string(note));
                }
                s.push('}');
                s
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"ok\": {}, \"detail\": {}}}",
                    c.name,
                    c.ok,
                    json_string(&c.detail)
                )
            })
            .collect();
        Ok(format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"clients\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"noisy\": {}, \
             \"calib_ms\": [{}, {}], \"calib_drift_pct\": {}, \"wake_us\": [{}, {}], \"wall_s\": {}, \
             \"metrics\": {{{}}}, \"checks\": [{}]}}",
            self.workload,
            u8::from(self.traced),
            self.seed,
            self.seconds,
            self.clients,
            self.correct(),
            self.attempted,
            self.failed,
            self.noisy(),
            num(self.host.0.calib_ms),
            num(self.host.1.calib_ms),
            num(self.calib_drift_pct()),
            num(self.host.0.wake_us),
            num(self.host.1.wake_us),
            num(self.wall_s),
            metrics.join(", "),
            checks.join(", ")
        ))
    }

    /// Every metric by name with its unit, then the checks, for people.
    pub fn to_table(&self) -> Result<String, String> {
        let mut out = format!(
            "== {} ({}, seed {}, {} s, C = {}) ==\n",
            self.workload,
            if self.traced { "per-layer trace" } else { "end to end" },
            self.seed,
            self.seconds,
            self.clients
        );
        for (m, unit) in self.ordered()? {
            let _ = write!(out, "  {:<40} {:>14.4} {unit}", m.name, m.value);
            if let Some(iqr) = m.iqr {
                let _ = write!(out, "  (iqr {iqr:.4}, n {})", m.n.unwrap_or(0));
            }
            if let Some(note) = &m.note {
                let _ = write!(out, "  [{note}]");
            }
            out.push('\n');
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  check {:<34} {}  {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        let _ = writeln!(
            out,
            "  attempted {}, failed {}, host calibration {:.1} ms -> {:.1} ms ({:.1} % drift{}), wake-up {:.0} us -> {:.0} us, wall {:.1} s",
            self.attempted,
            self.failed,
            self.host.0.calib_ms,
            self.host.1.calib_ms,
            self.calib_drift_pct(),
            if self.noisy() { ", NOISY" } else { "" },
            self.host.0.wake_us,
            self.host.1.wake_us,
            self.wall_s
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(traced: bool) -> Record {
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        Record {
            workload: "full_rsa1024",
            traced,
            seed: 3,
            seconds: 18,
            clients: 2,
            attempted: 10,
            failed: 0,
            metrics: names.into_iter().rev().map(|n| Metric::plain(n, 1.5)).collect(),
            checks: vec![Check { name: "bodies", ok: true, detail: "10 \"equal\"".into() }],
            host: (
                HostProbes { calib_ms: 100.0, wake_us: 10.0 },
                HostProbes { calib_ms: 104.0, wake_us: 12.0 },
            ),
            wall_s: 20.0,
        }
    }

    #[test]
    fn every_declared_metric_must_be_emitted_and_nothing_else() {
        for traced in [false, true] {
            let mut r = record(traced);
            let line = r.result_line().expect("complete set");
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            // Declaration order, whatever order the run emitted in.
            let first = if traced { PER_LAYER[0].name } else { END_TO_END[0].name };
            assert!(line.contains(&format!("\"metrics\": {{\"{first}\"")), "{line}");
            assert!(r.to_json().is_ok() && r.to_table().is_ok());

            let dropped = r.metrics.pop().expect("non-empty");
            assert!(r.result_line().unwrap_err().contains(dropped.name));
            r.metrics.push(dropped.clone());
            r.metrics.push(dropped);
            assert!(r.result_line().unwrap_err().contains("twice"));
            r.metrics.pop();
            r.metrics.push(Metric::plain("made.up", 1.0));
            assert!(r.result_line().unwrap_err().contains("not declared"));
        }
    }

    #[test]
    fn drift_marks_a_run_noisy_and_failures_make_it_incorrect() {
        let mut r = record(false);
        assert!((r.calib_drift_pct() - 4.0).abs() < 1e-9 && !r.noisy());
        r.host.1.calib_ms = 111.0;
        assert!(r.noisy());
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.checks[0].ok = false;
        assert!(!r.correct());
        assert!(r.to_json().unwrap().contains("\\\"equal\\\""));
    }

    #[test]
    fn degenerate_numbers_stay_valid_json() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(1.25), "1.25");
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
