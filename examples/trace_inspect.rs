//! Inspect one scheduler decision inside a serving trace: load a JSONL
//! trace written by the `trace` artifact (or any `ObsBundle::to_jsonl`
//! output), pick one `(stream, gof)`, and print the full decision
//! record — the Eq. 3 budget terms the scheduler saw, the features it
//! paid for, the branch it chose — next to the span tree of what then
//! actually ran on the virtual clock.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin reproduce -- trace   # writes target/trace.jsonl
//! cargo run --release --example trace_inspect            # first decision
//! cargo run --release --example trace_inspect -- target/trace.jsonl 2 5
//! ```

use lr_obs::{parse_jsonl, Value};

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn int(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(false)
}

fn is_type(v: &Value, ty: &str) -> bool {
    text(v, "type") == ty
}

fn print_decision(d: &Value) {
    println!(
        "decision stream={} gof={} @ {:.2} ms (video {}, frames {}..{})",
        int(d, "stream"),
        int(d, "gof"),
        num(d, "t_ms"),
        int(d, "video"),
        int(d, "start_frame"),
        int(d, "start_frame") + int(d, "frames"),
    );
    let prev = text(d, "prev_key");
    println!(
        "  chose   {}{}",
        text(d, "chosen_key"),
        if flag(d, "switched") {
            format!(
                "  (switched from {})",
                if prev.is_empty() { "<none>" } else { prev }
            )
        } else {
            String::new()
        }
    );
    if let Some(e) = d.get("explain") {
        println!(
            "  budget  SLO {:.1} ms -> usable {:.2} ms | S0 {:.2} + S(f_H) {:.2} + C(b0,b) {:.2} \
             -> amortized {:.2} ms/frame, predicted slack {:.2} ms",
            num(e, "slo_ms"),
            num(e, "budget_ms"),
            num(e, "s0_ms"),
            num(e, "s_heavy_ms"),
            num(e, "switch_pred_ms"),
            num(e, "amortized_ms"),
            num(e, "slack_ms"),
        );
        if let Some(feats) = e.get("features").and_then(Value::as_arr) {
            if !feats.is_empty() {
                let rendered: Vec<String> = feats
                    .iter()
                    .map(|f| format!("{} (Ben {:.3})", text(f, "name"), num(f, "ben")))
                    .collect();
                println!("  features {}", rendered.join(", "));
            }
        }
        let accs = e.get("branch_acc").and_then(Value::as_arr).unwrap_or(&[]);
        let kms = e
            .get("branch_kernel_ms")
            .and_then(Value::as_arr)
            .unwrap_or(&[]);
        let chosen = int(e, "chosen") as usize;
        println!("  branches (predicted accuracy / predicted kernel ms):");
        for (i, (a, k)) in accs.iter().zip(kms).enumerate() {
            println!(
                "    {} [{i:>2}] acc {:.4}  kernel {:.2} ms",
                if i == chosen { "->" } else { "  " },
                a.as_f64().unwrap_or(f64::NAN),
                k.as_f64().unwrap_or(f64::NAN),
            );
        }
        if !flag(e, "feasible") {
            println!("  NOTE: no branch fit the budget; fallback selection was used");
        }
        if flag(e, "cost_only") {
            println!("  NOTE: cost-only decision (accuracy models degraded)");
        }
    }
    println!(
        "  outcome per-frame {:.2} ms = sched {:.2} + switch {:.2} + kernel {:.2} + overhead {:.2} \
         (wasted {:.2}) | slowdown {:.2}x, faults {}{}",
        num(d, "per_frame_ms"),
        num(d, "sched_ms"),
        num(d, "switch_ms"),
        num(d, "kernel_ms"),
        num(d, "overhead_ms"),
        num(d, "wasted_ms"),
        num(d, "slowdown"),
        int(d, "faults"),
        if flag(d, "degraded") { ", degraded" } else { "" },
    );
    if let Some(degrades) = d.get("degrades").and_then(Value::as_arr) {
        if !degrades.is_empty() {
            let tags: Vec<&str> = degrades.iter().filter_map(Value::as_str).collect();
            println!("  degrade ladder: {}", tags.join(" -> "));
        }
    }
}

fn print_span_tree(events: &[Value], stream: u64, gof: u64) {
    println!("span tree (virtual-clock ms):");
    // Spans are emitted at span *end*, so children precede parents in
    // the trace; re-sort into begin order (ties broken by depth, so a
    // parent prints above children starting at the same instant).
    let mut spans: Vec<&Value> = events
        .iter()
        .filter(|s| is_type(s, "span") && int(s, "stream") == stream && int(s, "gof") == gof)
        .collect();
    spans.sort_by(|a, b| {
        num(a, "t0")
            .total_cmp(&num(b, "t0"))
            .then(int(a, "depth").cmp(&int(b, "depth")))
    });
    for s in spans.iter() {
        let depth = int(s, "depth") as usize;
        let label = text(s, "label");
        let t0 = num(s, "t0");
        let t1 = num(s, "t1");
        println!(
            "  {:indent$}{}{} [{t0:.3} .. {t1:.3}] {:.3} ms",
            "",
            text(s, "kind"),
            if label.is_empty() {
                String::new()
            } else {
                format!("({label})")
            },
            t1 - t0,
            indent = depth * 2,
        );
    }
    if spans.is_empty() {
        println!("  (no spans recorded for this GoF)");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args.get(1).map_or("target/trace.jsonl", String::as_str);
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace_inspect: cannot read {path}: {e}");
            eprintln!("run `cargo run --release -p lr-bench --bin reproduce -- trace` first");
            std::process::exit(2);
        }
    };
    let events = match parse_jsonl(&src) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace_inspect: {path} is not a valid trace: {e}");
            std::process::exit(2);
        }
    };
    let decisions: Vec<&Value> = events.iter().filter(|v| is_type(v, "decision")).collect();
    let spans = events.iter().filter(|v| is_type(v, "span")).count();
    let rounds = events.iter().filter(|v| is_type(v, "round")).count();
    println!(
        "{path}: {} decisions, {spans} spans, {rounds} rounds",
        decisions.len()
    );
    if decisions.is_empty() {
        eprintln!("trace_inspect: no decision records in {path} (was it an ObsMode::Off run?)");
        std::process::exit(2);
    }

    // Target (stream, gof): args 2 and 3, defaulting to the first
    // recorded decision.
    let stream = args
        .get(2)
        .and_then(|a| a.parse::<u64>().ok())
        .unwrap_or_else(|| int(decisions[0], "stream"));
    let gof = args
        .get(3)
        .and_then(|a| a.parse::<u64>().ok())
        .unwrap_or_else(|| int(decisions[0], "gof"));
    let Some(decision) = decisions
        .iter()
        .find(|d| int(d, "stream") == stream && int(d, "gof") == gof)
    else {
        eprintln!("trace_inspect: no decision for stream {stream} gof {gof}");
        let streams: Vec<String> = decisions
            .iter()
            .map(|d| format!("({}, {})", int(d, "stream"), int(d, "gof")))
            .take(8)
            .collect();
        eprintln!(
            "available (stream, gof) pairs start with: {}",
            streams.join(" ")
        );
        std::process::exit(2);
    };
    println!();
    print_decision(decision);
    println!();
    print_span_tree(&events, stream, gof);
}
