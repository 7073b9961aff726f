//! Pins the JSONL trace schema: the exact rendering of every event variant
//! (against the golden file `tests/golden/trace_events.jsonl`) and the
//! shape of a real run's event stream.

use ptaint::{
    AlertKind, DetectionPolicy, ExitReason, HierarchyConfig, Machine, TraceConfig, WorldConfig,
};
use ptaint_isa::{Instr, MemWidth, Reg};
use ptaint_trace::{Event, JsonlSink, Loc, MetricsCollector, ToJson, Transfer};

/// One hand-built event of every variant, in a fixed order.
fn one_of_each() -> Vec<Event> {
    let probe = Instr::Load {
        width: MemWidth::Word,
        signed: true,
        rt: Reg::new(9),
        base: Reg::new(8),
        offset: 0,
    };
    vec![
        Event::TaintSource {
            kind: "syscall",
            label: "recv#1 fd=4".to_string(),
            base: 0x1000_0000,
            len: 4,
        },
        Event::TaintPropagate(Transfer {
            pc: 0x40_0100,
            instr: Instr::Load {
                width: MemWidth::Word,
                signed: true,
                rt: Reg::new(8),
                base: Reg::new(4),
                offset: 0,
            },
            rule: "load",
            dst: Loc::Reg(Reg::new(8)),
            srcs: [Some(Loc::Mem(0x1000_0000)), None],
            taint_bits: 0b1111,
        }),
        Event::PointerCheck {
            pc: 0x40_0104,
            instr: probe,
            reg: Reg::new(8),
            value: 0x6161_6161,
            taint_bits: 0b1111,
            flagged: true,
        },
        Event::Alert {
            pc: 0x40_0104,
            instr: probe,
            kind: AlertKind::DataPointer.name(),
            policy: DetectionPolicy::PointerTaintedness.name(),
            reg: Reg::new(8),
            value: 0x6161_6161,
            taint_bits: 0b1111,
        },
        Event::Syscall {
            pc: 0x40_0010,
            number: 46,
            name: "recv",
            result: 4,
        },
        Event::Retire {
            pc: 0x40_0104,
            instr: probe,
            tainted: true,
        },
        Event::CacheAccess {
            level: 1,
            addr: 0x1000_0000,
            hit: false,
        },
        Event::DecodeCache {
            page: 0x400,
            kind: "invalidate",
        },
        Event::FaultInjected {
            kind: "taint_clear",
            detail: "taint cleared on [0x10000000, +256)".to_string(),
        },
        Event::Snapshot { pages: 42 },
        Event::Fork {
            pages_shared: 40,
            cow_faults: 3,
        },
        Event::DegradedMode {
            reason: "proven bitmap replica mismatch on page 0x00400000".to_string(),
        },
        Event::ReplayDivergence {
            index: 7,
            expected: "syscall 4003 (0x0, 0x10000000, 0x40)".to_string(),
            actual: "syscall 4001 (0x7, 0x0, 0x0)".to_string(),
        },
    ]
}

#[test]
fn golden_file_pins_every_event_rendering() {
    let mut sink = JsonlSink::new();
    let mut metrics = MetricsCollector::new();
    for event in one_of_each() {
        sink.record(&event);
        metrics.record(&event);
    }
    // The periodic `metrics_snapshot` row is not an `Event` variant — it is
    // a raw record interleaved into the same stream (sharing its dense seq
    // space) by the hub's `--metrics-interval` support. Pin it the same way.
    sink.record_fields(&format!(
        "\"event\":\"metrics_snapshot\",\"retired\":1,\"metrics\":{}",
        metrics.peek().to_json()
    ));
    let got = String::from_utf8(sink.into_bytes()).unwrap();
    // `BLESS=1 cargo test --test trace_schema` regenerates the golden file
    // after an intentional schema change (review the diff before commit).
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trace_events.jsonl"
        );
        std::fs::write(path, &got).expect("writes golden");
        return;
    }
    let golden = include_str!("golden/trace_events.jsonl");
    assert_eq!(got, golden, "JSONL schema drifted from the golden file");
}

/// Pulls the top-level keys of one flat JSONL object, in order. Handles the
/// value shapes the trace emits: numbers, booleans, strings, and arrays of
/// strings — without a JSON dependency.
fn keys_of(line: &str) -> Vec<String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not an object: {line}"));
    let mut keys = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Key.
        assert_eq!(chars.next(), Some('"'), "expected key in {line}");
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '"' {
                break;
            }
            key.push(c);
        }
        keys.push(key);
        assert_eq!(chars.next(), Some(':'), "expected `:` in {line}");
        // Value: skip until a top-level comma.
        let mut in_string = false;
        let mut escaped = false;
        let mut depth = 0u32;
        let mut done = true;
        while let Some(c) = chars.next() {
            if in_string {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                ',' if depth == 0 => {
                    done = chars.peek().is_none();
                    break;
                }
                _ => {}
            }
        }
        if done {
            break;
        }
    }
    keys
}

/// The pinned field order for each event discriminant (after `"seq"`).
fn pinned_keys(event: &str) -> &'static [&'static str] {
    match event {
        "retire" => &["event", "pc", "instr", "tainted"],
        "taint_source" => &["event", "kind", "label", "base", "len"],
        "taint_propagate" => &["event", "pc", "instr", "rule", "dst", "srcs", "taint"],
        "pointer_check" => &["event", "pc", "instr", "reg", "value", "taint", "flagged"],
        "alert" => &[
            "event", "pc", "instr", "kind", "policy", "reg", "value", "taint",
        ],
        "syscall" => &["event", "pc", "number", "name", "result"],
        "cache_access" => &["event", "level", "addr", "hit"],
        "decode_cache" => &["event", "page", "kind"],
        "fault_injected" => &["event", "kind", "detail"],
        "snapshot" => &["event", "pages"],
        "fork" => &["event", "pages_shared", "cow_faults"],
        "degraded_mode" => &["event", "reason"],
        "replay_divergence" => &["event", "index", "expected", "actual"],
        "metrics_snapshot" => &["event", "retired", "metrics"],
        other => panic!("unknown event discriminant `{other}`"),
    }
}

#[test]
fn real_run_stream_matches_the_pinned_schema() {
    let machine = Machine::from_c(
        r#"
        void vulnerable() {
            char buf[10];
            scanf("%s", buf);
        }
        int main() { vulnerable(); return 0; }
        "#,
    )
    .unwrap()
    .world(WorldConfig::new().stdin(vec![b'a'; 24]))
    .policy(DetectionPolicy::PointerTaintedness)
    .hierarchy(HierarchyConfig::two_level());

    let (outcome, _tail, report) = machine.run_with_trace(&TraceConfig::all());
    assert!(
        matches!(outcome.reason, ExitReason::Security(_)),
        "{:?}",
        outcome.reason
    );

    let jsonl = String::from_utf8(report.jsonl.expect("jsonl enabled")).unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        let keys = keys_of(line);
        assert_eq!(keys[0], "seq", "line {i}: {line}");
        // Sequence numbers are dense and start at zero.
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},")),
            "line {i}: {line}"
        );
        let event = keys[1..]
            .first()
            .map(String::as_str)
            .expect("event discriminant");
        assert_eq!(event, "event", "line {i}: {line}");
        let name_start = line.find("\"event\":\"").unwrap() + "\"event\":\"".len();
        let name = &line[name_start..name_start + line[name_start..].find('"').unwrap()];
        assert_eq!(&keys[1..], pinned_keys(name), "line {i}: {line}");
        *counts.entry(name.to_string()).or_insert(0u64) += 1;
    }

    // The attack exercises every variant of the vocabulary.
    for expected in [
        "retire",
        "taint_source",
        "taint_propagate",
        "pointer_check",
        "alert",
        "syscall",
        "cache_access",
        "decode_cache",
    ] {
        assert!(counts.contains_key(expected), "no `{expected}` in stream");
    }

    // The metrics snapshot is consistent with the stream it was fed.
    let metrics = report.metrics.expect("metrics enabled");
    assert_eq!(metrics.retired, counts["retire"]);
    assert_eq!(metrics.taint_sources, counts["taint_source"]);
    assert_eq!(metrics.propagations, counts["taint_propagate"]);
    assert_eq!(metrics.pointer_checks, counts["pointer_check"]);
    assert_eq!(metrics.alerts, counts["alert"]);
    assert_eq!(metrics.alerts, 1);
}

#[test]
fn metrics_interval_interleaves_pinned_snapshot_records() {
    const INTERVAL: u64 = 50;
    let machine = Machine::from_c(
        r#"
        void vulnerable() {
            char buf[10];
            scanf("%s", buf);
        }
        int main() { vulnerable(); return 0; }
        "#,
    )
    .unwrap()
    .world(WorldConfig::new().stdin(vec![b'a'; 24]))
    .policy(DetectionPolicy::PointerTaintedness);

    let cfg = TraceConfig {
        jsonl: true,
        metrics_interval: Some(INTERVAL),
        ..TraceConfig::default()
    };
    let (outcome, _tail, report) = machine.run_with_trace(&cfg);
    assert!(matches!(outcome.reason, ExitReason::Security(_)));

    let jsonl = String::from_utf8(report.jsonl.expect("jsonl forced on")).unwrap();
    let mut snapshots = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        // Snapshot rows share the stream's dense seq space.
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},")),
            "line {i}: {line}"
        );
        if !line.contains("\"event\":\"metrics_snapshot\"") {
            continue;
        }
        let keys = keys_of(line);
        assert_eq!(&keys[1..], pinned_keys("metrics_snapshot"), "{line}");
        let at = line.find("\"retired\":").unwrap() + "\"retired\":".len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        snapshots.push(digits.parse::<u64>().unwrap());
    }

    // One snapshot per full interval, at exact multiples of it.
    let retired = report.metrics.expect("metrics forced on").retired;
    assert_eq!(snapshots.len() as u64, retired / INTERVAL);
    assert!(!snapshots.is_empty(), "run too short to snapshot");
    for (i, &at) in snapshots.iter().enumerate() {
        assert_eq!(at, (i as u64 + 1) * INTERVAL);
    }
}
