//! What a run reports: named metrics with units, operation counts, and
//! failed output checks, printed as one JSON object on the last line.

use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Figures printed for people but kept out of the JSON line, because
    /// they cannot be held steady on a shared host (see README).
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check; a non-empty list fails the run.
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record an output check; `detail` is only rendered on failure.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(detail());
        }
    }

    /// The final JSON line. Metric names and units are plain ASCII
    /// identifiers, so no string escaping is needed.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that produced one is a
/// benchmark bug, reported as `null` so the consumer rejects it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The p99 of each block of consecutive rounds holding at least `block`
/// samples (so that ten lie beyond it), then the median over the
/// blocks: one burst of scheduling noise moves one block, not the
/// figure. A trailing partial block counts only when it is the only one.
pub fn blocked_p99(rounds: &[Vec<f64>], block: usize) -> f64 {
    let mut p99s = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    for r in rounds {
        current.extend(r);
        if current.len() >= block {
            p99s.push(quantile(&current, 0.99));
            current.clear();
        }
    }
    if p99s.is_empty() {
        p99s.push(quantile(&current, 0.99));
    }
    median(&p99s)
}

/// For samples taken round after round over the same inputs (one value
/// per input per round, in input order): each input's fastest sample,
/// then the median over inputs. The fastest of several runs of the same
/// work is what it costs when nothing else interrupts it, so scheduling
/// noise on a shared host moves this much less than a median over all
/// samples.
pub fn median_of_fastest(rounds: &[Vec<f64>]) -> f64 {
    let inputs = rounds.iter().map(Vec::len).max().unwrap_or(0);
    let fastest: Vec<f64> = (0..inputs)
        .filter_map(|i| {
            rounds
                .iter()
                .filter_map(|r| r.get(i).copied())
                .min_by(f64::total_cmp)
        })
        .collect();
    median(&fastest)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// CPU time this process has used (user + system, live and exited
/// threads), in seconds. The kernel keeps time stolen by the hypervisor
/// out of it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() == 2 {
        (f[0] + f[1]) / 100.0
    } else {
        f64::NAN
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), which covers
/// every thread the run started, the in-process daemon included.
/// Workloads read it after their first round: later rounds repeat the
/// same work, and the allocator's reuse of freed memory across rounds
/// would otherwise make the figure depend on how many rounds fit.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn blocked_p99_takes_the_median_block() {
        let calm: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let noisy: Vec<f64> = (0..100)
            .map(|i| if i == 99 { 1e6 } else { i as f64 })
            .collect();
        let rounds = vec![calm.clone(), noisy.clone(), calm.clone(), vec![5.0]];
        assert_eq!(blocked_p99(&rounds, 100), quantile(&calm, 0.99));
        assert_eq!(blocked_p99(&[vec![5.0]], 100), 5.0);
    }

    #[test]
    fn median_of_fastest_takes_each_inputs_best_round() {
        let rounds = vec![vec![5.0, 9.0, 1.0], vec![4.0, 20.0, 3.0], vec![6.0, 8.0]];
        // Fastest per input: 4, 8, 1.
        assert_eq!(median_of_fastest(&rounds), 4.0);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
