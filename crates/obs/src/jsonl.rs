//! The deterministic JSONL exporter and its schema validator, both on
//! the [`crate::json`] codec.
//!
//! One JSON object per line: a header, then counters, histograms, span
//! aggregates and errors, each section sorted by its natural key. The
//! export contains *only* logical content — no wall-clock timestamps, no
//! thread ids — so a run's JSONL is byte-identical at any worker-thread
//! count. Wall-clock metrics (counter/histogram names starting with
//! `time/`) are excluded here and live in the Chrome trace instead.

use crate::json::{escape, parse_json, Json};
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;

/// Schema identifier emitted in (and required of) the header line.
pub const SCHEMA: &str = "cta-obs/v1";

/// Prefix marking wall-clock metrics excluded from deterministic export.
pub const TIME_PREFIX: &str = "time/";

/// Renders a snapshot as deterministic JSONL.
pub fn render_jsonl(snap: &Snapshot, bin: &str) -> String {
    let counters: Vec<_> = snap
        .counters
        .iter()
        .filter(|((n, _), _)| !n.starts_with(TIME_PREFIX))
        .collect();
    let hists: Vec<_> = snap
        .hists
        .iter()
        .filter(|((n, _), _)| !n.starts_with(TIME_PREFIX))
        .collect();
    // Errors aggregate by (kind, name): thread indices depend on
    // scheduling and must not reach the deterministic export.
    let mut errors: BTreeMap<(&'static str, &str), u64> = BTreeMap::new();
    for e in &snap.errors {
        *errors.entry((e.kind(), e.name())).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"bin\":\"{}\",\"counters\":{},\"hists\":{},\"spans\":{},\"errors\":{},\"dropped\":{}}}\n",
        SCHEMA,
        escape(bin),
        counters.len(),
        hists.len(),
        snap.spans.len(),
        errors.len(),
        snap.dropped,
    ));
    for ((name, key), v) in counters {
        out.push_str(&format!(
            "{{\"t\":\"counter\",\"name\":\"{}\",\"key\":\"{}\",\"value\":{}}}\n",
            escape(name),
            escape(key),
            v
        ));
    }
    for ((name, key), h) in hists {
        let buckets: Vec<String> = h
            .buckets()
            .iter()
            .map(|&(b, n)| format!("[{b},{n}]"))
            .collect();
        out.push_str(&format!(
            "{{\"t\":\"hist\",\"name\":\"{}\",\"key\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}\n",
            escape(name),
            escape(key),
            h.count,
            h.sum,
            buckets.join(",")
        ));
    }
    // Span lines carry counts only: nesting depth depends on which
    // thread ran the span relative to its parent (inline vs worker), so
    // like timestamps and thread ids it stays out of the deterministic
    // export (it is visible in the Chrome trace instead).
    for (name, agg) in &snap.spans {
        out.push_str(&format!(
            "{{\"t\":\"span\",\"name\":\"{}\",\"count\":{}}}\n",
            escape(name),
            agg.count
        ));
    }
    for ((kind, name), count) in errors {
        out.push_str(&format!(
            "{{\"t\":\"error\",\"kind\":\"{}\",\"name\":\"{}\",\"count\":{}}}\n",
            kind,
            escape(name),
            count
        ));
    }
    out
}

/// Section counts declared by (and checked against) a JSONL export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JsonlSummary {
    /// Counter lines.
    pub counters: u64,
    /// Histogram lines.
    pub hists: u64,
    /// Span lines.
    pub spans: u64,
    /// Error lines.
    pub errors: u64,
}

/// Validates a JSONL export against the `cta-obs/v1` schema: header
/// first, every line a well-formed object of a known type, sections in
/// order and sorted, section counts matching the header, no `time/`
/// metrics, and histogram bucket mass equal to the declared count.
pub fn validate(text: &str) -> Result<JsonlSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty document")?;
    let header = parse_json(header).map_err(|e| format!("header: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("header schema is not {SCHEMA:?}"));
    }
    let declared = JsonlSummary {
        counters: need_u64(&header, "counters")?,
        hists: need_u64(&header, "hists")?,
        spans: need_u64(&header, "spans")?,
        errors: need_u64(&header, "errors")?,
    };
    let mut seen = JsonlSummary::default();
    // Section order and intra-section sort keys.
    let section_rank = |t: &str| match t {
        "counter" => Ok(0u8),
        "hist" => Ok(1),
        "span" => Ok(2),
        "error" => Ok(3),
        other => Err(format!("unknown line type {other:?}")),
    };
    let mut last: Option<(u8, (String, String))> = None;
    for (i, line) in lines {
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = obj
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing \"t\"", i + 1))?
            .to_string();
        let rank = section_rank(&t).map_err(|e| format!("line {}: {e}", i + 1))?;
        let sort_key = match t.as_str() {
            "counter" | "hist" => {
                let name = need_str(&obj, "name").map_err(|e| format!("line {}: {e}", i + 1))?;
                if name.starts_with(TIME_PREFIX) {
                    return Err(format!(
                        "line {}: wall-clock metric {name:?} in deterministic export",
                        i + 1
                    ));
                }
                let key = need_str(&obj, "key").map_err(|e| format!("line {}: {e}", i + 1))?;
                if t == "counter" {
                    need_u64(&obj, "value").map_err(|e| format!("line {}: {e}", i + 1))?;
                    seen.counters += 1;
                } else {
                    let count =
                        need_u64(&obj, "count").map_err(|e| format!("line {}: {e}", i + 1))?;
                    let mass = bucket_mass(&obj).map_err(|e| format!("line {}: {e}", i + 1))?;
                    if mass != count {
                        return Err(format!(
                            "line {}: histogram mass {mass} != declared count {count}",
                            i + 1
                        ));
                    }
                    seen.hists += 1;
                }
                (name, key)
            }
            "span" => {
                let name = need_str(&obj, "name").map_err(|e| format!("line {}: {e}", i + 1))?;
                need_u64(&obj, "count").map_err(|e| format!("line {}: {e}", i + 1))?;
                seen.spans += 1;
                (name, String::new())
            }
            _ => {
                let kind = need_str(&obj, "kind").map_err(|e| format!("line {}: {e}", i + 1))?;
                let name = need_str(&obj, "name").map_err(|e| format!("line {}: {e}", i + 1))?;
                seen.errors += 1;
                (kind, name)
            }
        };
        if let Some((prev_rank, prev_key)) = &last {
            if rank < *prev_rank || (rank == *prev_rank && sort_key < *prev_key) {
                return Err(format!("line {}: out of order", i + 1));
            }
        }
        last = Some((rank, sort_key));
    }
    if seen != declared {
        return Err(format!(
            "header declares {declared:?} but body has {seen:?}"
        ));
    }
    Ok(seen)
}

fn need_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string field {key:?}"))
}

fn need_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing integer field {key:?}"))
}

fn bucket_mass(obj: &Json) -> Result<u64, String> {
    let Some(Json::Arr(buckets)) = obj.get("buckets") else {
        return Err("missing array field \"buckets\"".into());
    };
    let mut mass = 0u64;
    for b in buckets {
        let Json::Arr(pair) = b else {
            return Err("bucket is not a [index, count] pair".into());
        };
        if pair.len() != 2 {
            return Err("bucket is not a [index, count] pair".into());
        }
        mass += pair[1].as_u64().ok_or("bucket count is not an integer")?;
    }
    Ok(mass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_snapshot() -> Snapshot {
        let obs = Obs::new();
        obs.counter("sim/l1_hits", "GTX570/MM/BSL/sm0", 42);
        obs.counter("sim/l1_hits", "GTX570/MM/BSL/sm1", 7);
        obs.counter("time/busy_ns", "GTX570/MM/BSL", 123_456);
        obs.hist("reuse_distance", "GTX570/MM/BSL/tag0/c1", 5);
        obs.hist("reuse_distance", "GTX570/MM/BSL/tag0/c1", 900);
        {
            let _g = obs.span("GTX570/MM/BSL");
        }
        obs.snapshot()
    }

    #[test]
    fn render_validate_roundtrip() {
        let text = render_jsonl(&sample_snapshot(), "unit");
        let summary = validate(&text).expect("valid export");
        assert_eq!(
            summary,
            JsonlSummary {
                counters: 2, // time/busy_ns excluded
                hists: 1,
                spans: 1,
                errors: 0
            }
        );
        assert!(!text.contains("time/"), "wall-clock metric leaked:\n{text}");
    }

    #[test]
    fn validator_rejects_tampering() {
        let text = render_jsonl(&sample_snapshot(), "unit");
        // Flip a histogram count so mass no longer matches.
        let bad = text.replace("\"count\":2,\"sum\":905", "\"count\":3,\"sum\":905");
        assert_ne!(text, bad);
        assert!(validate(&bad).is_err());
        // Drop the header.
        let headless: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate(&headless).is_err());
    }

    #[test]
    fn export_is_stable_across_recording_order() {
        let a = {
            let obs = Obs::new();
            obs.counter("m", "k1", 1);
            obs.counter("m", "k2", 2);
            obs.snapshot()
        };
        let b = {
            let obs = Obs::new();
            obs.counter("m", "k2", 2);
            obs.counter("m", "k1", 1);
            obs.snapshot()
        };
        assert_eq!(render_jsonl(&a, "x"), render_jsonl(&b, "x"));
    }
}
