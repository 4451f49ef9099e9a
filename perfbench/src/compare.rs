//! `perfbench compare A B`: reads two result sets — files holding one
//! result line (the JSON object a run prints last) per run, e.g. the
//! runs of the parent and of a change, ten seeds each — and prints, per
//! metric, each side's median and quartiles, its spread (interquartile
//! range over median), the change of the median, and pass/fail against
//! the bound `BENCHMARK.json` fixes for the metric.

use crate::stats::quartiles;
use cta_obs::{parse_json, Json};
use std::collections::BTreeMap;

/// Bound and direction of one end-to-end metric.
#[derive(Debug, Clone)]
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = parse_json(benchmark_json)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(metrics)) = doc.get(key) else {
            continue;
        };
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(num).unwrap_or(f64::NAN),
                },
            );
        }
    }
    Ok(out)
}

/// Metric values per name over every result line of `text`.
fn results(text: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = parse_json(line)?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(num) {
                out.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Compares result sets `a` (base) and `b` (change); returns the report
/// and whether every bounded metric passed.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (results(a)?, results(b)?);
    let mut report = format!(
        "{:<32} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "A sprd",
        "B q1",
        "B median",
        "B q3",
        "B sprd",
        "change",
        "bound"
    );
    let mut all_pass = true;
    for (name, av) in &a {
        let Some(bv) = b.get(name) else { continue };
        let (Some(qa), Some(qb)) = (quartiles(av), quartiles(bv)) else {
            report.push_str(&format!("{name:<32} needs at least 2 runs per side\n"));
            continue;
        };
        let spread = |q: [f64; 3]| {
            if q[1] != 0.0 {
                (q[2] - q[0]) / q[1].abs()
            } else {
                0.0
            }
        };
        let change = if qa[1] != 0.0 {
            (qb[1] - qa[1]) / qa[1].abs()
        } else {
            0.0
        };
        let (bound_txt, verdict) = match bounds.get(name) {
            Some(bd) if bd.bound.is_finite() => {
                let worse = if bd.lower_is_better { change } else { -change };
                let pass = worse <= bd.bound;
                all_pass &= pass;
                let v = if !pass {
                    "FAIL: worse than bound"
                } else if spread(qa) > bd.bound || spread(qb) > bd.bound {
                    "pass (unresolved: spread > bound)"
                } else {
                    "pass"
                };
                (format!("{:.3}", bd.bound), v)
            }
            _ => ("-".to_string(), "(per-layer, unbounded)"),
        };
        report.push_str(&format!(
            "{name:<32} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>+8.4} {:>6}  {verdict}\n",
            qa[0], qa[1], qa[2], spread(qa), qb[0], qb[1], qb[2], spread(qb), change, bound_txt
        ));
    }
    Ok((report, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end":[
        {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
        {"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.1}],
        "per_layer":[{"name":"l1.reads","unit":"count","better":"higher"}]}"#;

    fn line(ops: f64, p50: f64) -> String {
        format!(
            r#"{{"correct":true,"attempted":1,"failed":0,"metrics":{{"ops_per_s":{{"value":{ops},"unit":"1/s"}},"op_ms_p50":{{"value":{p50},"unit":"ms"}}}}}}"#
        )
    }

    #[test]
    fn passes_within_bounds_and_fails_beyond() {
        let a: String = [line(100.0, 10.0), line(101.0, 10.1), line(99.0, 9.9)].join("\n");
        let same: String = [line(100.0, 10.0), line(102.0, 10.0), line(98.0, 10.2)].join("\n");
        let (_, ok) = compare(BENCH, &a, &same).expect("compares");
        assert!(ok);
        let slower: String = [line(80.0, 12.0), line(81.0, 12.1), line(79.0, 11.9)].join("\n");
        let (report, ok) = compare(BENCH, &a, &slower).expect("compares");
        assert!(!ok, "{report}");
        assert!(report.contains("FAIL"));
    }
}
