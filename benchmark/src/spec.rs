//! What the benchmark measures: the workloads, every metric with its unit,
//! direction and bound, and the text of `BENCHMARK.json`.
//!
//! `BENCHMARK.json` at the repository root is exactly [`benchmark_json`]'s
//! output (a unit test holds the two together), so this table is the one
//! place a name, unit or bound is written down.

/// How long one run measures, in seconds (`run_seconds` of
/// `BENCHMARK.json`, and the suite's default `--seconds`). In twenty-five
/// seconds `tcp_async_read` completes ≈ 72 000 operations and so ≈ 3 600
/// puts: three p99 windows of its rarest kind, the fewest whose median a
/// burst in one of them cannot move. And the driver's 92 runs, with their
/// set-ups, take ≈ 2 400 of its 3 420 seconds — 2 900 when the host is slow.
pub const RUN_SECONDS: u64 = 25;

/// One named set of inputs.
#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "tcp_async_read",
        why:
            "paper's headline fleet (9 servers, loopback TCP) on the read path: transport, codec, \
              thread runtime and register read rounds do all the work, the bulk plane none",
    },
    WorkloadSpec {
        name: "tcp_async_update_coded",
        why: "same fleet, 2-of-3 coded plane, 4 KiB values, 25% puts: the only TCP workload where \
              digest, Reed-Solomon, Merkle and 64 KiB frames carry weight",
    },
    WorkloadSpec {
        name: "sim_sync_update",
        why: "simulator, synchronous mode (4 servers, 5 ms bound), a Byzantine server and a server \
              corruption: latency is timers in virtual time, so CPU savings cannot move it, a timeout fix does",
    },
    WorkloadSpec {
        name: "sim_faulted_coded",
        why: "simulator, coded plane, one Byzantine server plus transient faults: the paper's \
              actual claim, exact counts, sockets idle while dispatch, monitor and repair work",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Every workload reports every one of
/// these, and none is ever zero.
///
/// The bounds are sized to the machine, not to the estimators: ten runs
/// in a quiet quarter of an hour spread 2–4 % (7–10 % on the p99s), but
/// the shared 2-core host has minutes-long episodes in which every run —
/// the single-threaded simulator's too — is 15–45 % slower and uses as
/// much more CPU per operation, and a bound has to outlast one of those.
/// So every timing takes the contract's ceiling.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("put_p99_us", "us", Lower, 0.25),
    e2e("get_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Bounds the suite applies to the exact simulator counts when it compares
/// two sets of runs (`--selfcheck`). They sit in the per-layer section of
/// `BENCHMARK.json`, which has no bounds, because the TCP workloads cannot
/// report them from an untraced run.
pub const EXACT_COUNT_BOUNDS: &[(&str, f64)] = &[
    ("msgs_per_op", 0.005),
    ("wire_bytes_per_op", 0.01),
    ("stabilization_ms", 0.0),
];

/// The simulator workload's counts that are a function of its seeds alone:
/// two sets of runs of the same code must agree on them to the last bit.
pub const SIM_EXACT_COUNTS: &[&str] = &[
    "msgs_per_op",
    "wire_bytes_per_op",
    "stabilization_ms",
    "store.deliveries_per_op",
    "sim.sim.events_per_op",
    "store.meta_bytes_per_op",
    "store.bulk_bytes_per_op",
    "store.msgs_per_op.BATCH",
    "store.msgs_per_op.FRAG_PUT",
    "store.msgs_per_op.FRAG_PUT_ACK",
    "store.msgs_per_op.BULK_GET",
    "store.msgs_per_op.FRAG_GET_ACK",
    "store.msgs_per_op.REPAIR_REQ",
    "store.msgs_per_op.REPAIR_REPLY",
    "store.msgs_per_op.DIGEST_SUMMARY",
    "store.retransmits_per_op",
    "store.metadata_rereads_per_op",
    "store.repair_rounds_per_op",
];

/// Message labels the traced TCP run and the simulator both break sends
/// down by.
pub const DATA_LABELS: &[&str] = &[
    "BATCH",
    "FRAG_PUT",
    "FRAG_PUT_ACK",
    "BULK_GET",
    "FRAG_GET_ACK",
];
/// Labels only the self-healing plane sends (simulator workload).
pub const REPAIR_LABELS: &[&str] = &["REPAIR_REQ", "REPAIR_REPLY", "DIGEST_SUMMARY"];

/// Metrics of single layers (layer = module). A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricSpec] = &[
    // Whole-system counts: exact on the simulator, measured by the span
    // transport on sockets.
    layer("msgs_per_op", "count", Lower),
    layer("wire_bytes_per_op", "B", Lower),
    layer("stabilization_ms", "ms", Lower),
    // Traced TCP run.
    layer("store.client.handler_us_per_op", "us", Lower),
    layer("store.client.handlers_per_op", "count", Lower),
    layer("store.client.timer_handlers_per_op", "count", Lower),
    layer("store.server.handler_us_per_op", "us", Lower),
    layer("store.server.handlers_per_op", "count", Lower),
    layer("net.transport.send_us_per_op", "us", Lower),
    layer("net.transport.send_us_p99", "us", Lower),
    layer("net.transport.sends_per_op", "count", Lower),
    layer("net.transport.wire_bytes_per_op", "B", Lower),
    layer("store.sends_per_op.BATCH", "count", Lower),
    layer("store.sends_per_op.FRAG_PUT", "count", Lower),
    layer("store.sends_per_op.FRAG_PUT_ACK", "count", Lower),
    layer("store.sends_per_op.BULK_GET", "count", Lower),
    layer("store.sends_per_op.FRAG_GET_ACK", "count", Lower),
    layer("sim.runtime.unattributed_cpu_us_per_op", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    // Captured-message replay.
    layer("net.codec.encode_ns_per_msg", "ns", Lower),
    layer("net.codec.decode_ns_per_msg", "ns", Lower),
    layer("net.codec.bytes_per_msg", "B", Lower),
    layer("net.codec.frame_io_ns_per_msg", "ns", Lower),
    // Probes.
    layer("bulk.digest_ns_per_kib", "ns", Lower),
    layer("bulk.coding.encode_ns_per_kib", "ns", Lower),
    layer("bulk.coding.reconstruct_ns_per_kib", "ns", Lower),
    layer("bulk.merkle.commit_ns", "ns", Lower),
    layer("bulk.merkle.verify_ns", "ns", Lower),
    layer("store.map.insert_clone_ns", "ns", Lower),
    layer("store.router.route_ns", "ns", Lower),
    layer("core.swsr_write_us", "us", Lower),
    layer("core.swsr_read_us", "us", Lower),
    layer("stamps.ring_cmp_ns", "ns", Lower),
    layer("stamps.epoch_next_ns", "ns", Lower),
    layer("stamps.timestamp_cmp_ns", "ns", Lower),
    layer("link.transfer_ns", "ns", Lower),
    layer("sim.runtime.hop_ns", "ns", Lower),
    layer("sim.sim.ns_per_event", "ns", Lower),
    layer("obs.monitor.ns_per_op", "ns", Lower),
    layer("obs.hist.record_ns", "ns", Lower),
    layer("check.linearize_us_per_kop", "us", Lower),
    // Exact simulator counters.
    layer("store.deliveries_per_op", "count", Lower),
    layer("sim.sim.events_per_op", "count", Lower),
    layer("store.meta_bytes_per_op", "B", Lower),
    layer("store.bulk_bytes_per_op", "B", Lower),
    layer("store.msgs_per_op.BATCH", "count", Lower),
    layer("store.msgs_per_op.FRAG_PUT", "count", Lower),
    layer("store.msgs_per_op.FRAG_PUT_ACK", "count", Lower),
    layer("store.msgs_per_op.BULK_GET", "count", Lower),
    layer("store.msgs_per_op.FRAG_GET_ACK", "count", Lower),
    layer("store.msgs_per_op.REPAIR_REQ", "count", Lower),
    layer("store.msgs_per_op.REPAIR_REPLY", "count", Lower),
    layer("store.msgs_per_op.DIGEST_SUMMARY", "count", Lower),
    layer("store.retransmits_per_op", "count", Lower),
    layer("store.metadata_rereads_per_op", "count", Lower),
    layer("store.repair_rounds_per_op", "count", Lower),
];

/// The per-layer metric `<prefix>.<LABEL>` of a message label, as in
/// `store.sends_per_op.BATCH`.
pub fn label_metric(prefix: &str, label: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| {
            n.strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('.'))
                == Some(label)
        })
        .unwrap_or_else(|| panic!("no metric {prefix}.{label} in the spec"))
}

/// The metric called `name`, from either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contract's rule for a workload or metric name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contract's rule for a unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n");
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    s += &format!("  \"command\": [{}],\n", quoted.join(", "));
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "workload name {}", w.name);
            assert!(seen.insert(w.name), "name {} used twice", w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(
                !w.why.contains(['"', '\\', '\n']),
                "{}: why must be one plain line",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "name {} used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for (name, _) in EXACT_COUNT_BOUNDS {
            assert!(SIM_EXACT_COUNTS.contains(name));
        }
        for name in SIM_EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_counted_label_has_its_metrics() {
        for label in DATA_LABELS {
            assert!(label_metric("store.sends_per_op", label).ends_with(label));
        }
        for label in DATA_LABELS.iter().chain(REPAIR_LABELS) {
            assert!(label_metric("store.msgs_per_op", label).ends_with(label));
        }
    }

    #[test]
    fn name_charset_is_enforced() {
        for good in ["ops_per_s", "store.sends_per_op.BATCH", "a-b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/no", "pct%", &long] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per op") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
