//! Self-tests of the benchmark's own pieces: the percentile rule, open-loop
//! lateness accounting, the name grammar and `BENCHMARK.json` parsing.

use ditto_perfbench::pace::{sustained, Lateness, Pacing, FELL_BEHIND_MS};
use ditto_perfbench::spec::{parse, valid_name, valid_unit, BenchSpec, Better, Value};
use ditto_perfbench::stats::{
    best_per_step, beyond, median, round_tail, supported_percentile, Tail,
};
use ditto_perfbench::workloads::Kind;

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1_000, 9_900), 10);
    assert_eq!(supported_percentile(1_000, 9_900), Some(9_900));
    assert_eq!(beyond(999, 9_900), 9);
    assert_eq!(supported_percentile(999, 9_900), Some(9_000));
    assert_eq!(supported_percentile(10_000, 9_999), Some(9_990));
    assert_eq!(supported_percentile(100_000, 9_999), Some(9_999));
    assert_eq!(supported_percentile(20, 9_900), Some(5_000));
    assert_eq!(supported_percentile(19, 9_900), None);
    assert_eq!(supported_percentile(0, 9_900), None);
}

#[test]
fn tail_reports_the_supported_percentile_by_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = Tail::of(&values, 9_900);
    assert_eq!(t.n, 100);
    assert_eq!(t.p50, 50.0);
    assert_eq!(t.tail_pct, 9_000, "100 samples support p90, not p99");
    assert_eq!(t.tail, 90.0);

    let many: Vec<f64> = (1..=1_000).map(f64::from).collect();
    let t = Tail::of(&many, 9_900);
    assert_eq!((t.tail_pct, t.tail), (9_900, 990.0));

    let few = Tail::of(&[3.0, 1.0, 2.0], 9_900);
    assert_eq!((few.p50, few.tail, few.tail_pct), (2.0, 3.0, 10_000));
    assert_eq!(Tail::of(&[], 9_900).n, 0);
}

#[test]
fn round_tail_is_the_median_of_supported_round_tails() {
    let round = |scale: f64| {
        (1..=1_000)
            .map(|v| f64::from(v) * scale)
            .collect::<Vec<_>>()
    };
    let t = round_tail(&[round(1.0), round(2.0), round(10.0), vec![1.0; 5]], 9_900);
    assert_eq!(t.n, 3_005);
    assert_eq!(t.tail_pct, 9_900);
    assert_eq!(
        t.tail, 1_980.0,
        "median of 990, 1980 and 9900; the short round is skipped"
    );
    assert_eq!(t.p50, 1_000.0);
}

#[test]
fn median_of_even_and_odd_samples() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn best_per_step_takes_each_steps_fastest_repeat() {
    let best = best_per_step(&[
        vec![3.0, 1.0, 5.0],
        vec![2.0, 4.0, 6.0, 0.5],
        vec![9.0, 2.0, 4.0],
    ]);
    assert_eq!(
        best,
        vec![2.0, 1.0, 4.0],
        "truncated to the shortest series"
    );
    assert!(best_per_step(&[]).is_empty());
}

#[test]
fn paced_batches_fall_due_on_the_fixed_schedule() {
    let p = Pacing {
        start_ns: 1_000,
        batch_tuples: 10,
        rate_tps: 1_000.0,
    };
    assert_eq!(p.due_ns(0), 1_000);
    assert_eq!(p.due_ns(3), 1_000 + 30_000_000);
}

#[test]
fn lateness_counts_from_the_due_instant_and_never_negative() {
    let mut l = Lateness::new();
    l.record(1_000_000, 1_000_000);
    l.record(2_000_000, 2_500_000);
    l.record(3_000_000, 2_900_000);
    let t = l.tail();
    assert_eq!(t.n, 3);
    assert_eq!(t.p50, 0.0);
    assert_eq!(t.tail, 0.5, "max of 0, 0.5 and (early) 0 ms");
    assert!(!l.fell_behind());
}

#[test]
fn bounded_jitter_is_not_falling_behind() {
    let mut l = Lateness::new();
    for i in 0..1_000u64 {
        let late = if i % 10 == 0 { 5_000_000 } else { 50_000 };
        l.record(i * 1_000_000, i * 1_000_000 + late);
    }
    assert!(!l.fell_behind());
    assert_eq!(l.len(), 1_000);
}

#[test]
fn growing_lateness_is_falling_behind() {
    // Each send slips a further 0.1 ms: by the last tenth the generator
    // is far more than FELL_BEHIND_MS behind its schedule.
    let mut l = Lateness::new();
    for i in 0..1_000u64 {
        l.record(i * 1_000_000, i * 1_100_000);
    }
    assert!(l.tail().tail > FELL_BEHIND_MS);
    assert!(l.fell_behind());

    let mut merged = Lateness::new();
    merged.extend(&l);
    assert_eq!(merged.len(), 1_000);
}

#[test]
fn a_backlog_is_delivery_below_the_offered_rate() {
    assert!(sustained(200_000.0, 199_990.0));
    assert!(!sustained(200_000.0, 150_000.0));
}

#[test]
fn metric_and_unit_grammar() {
    for ok in [
        "tuples_per_s",
        "wire.send_us.p50",
        "hls-sim.ff_skip_frac",
        "9lives",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in ["", ".hidden", "-x", "a b", "a/b", "a:b", "é", long.as_str()] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    for ok in ["ms", "s", "1/s", "tuples/s", "%", "count", "MiB"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "tuples per s", "a_unit_far_too_long"] {
        assert!(!valid_unit(bad), "{bad:?}");
    }
}

#[test]
fn json_reader_handles_nesting_and_escapes() {
    let v = parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"yé\n"}} "#).unwrap();
    let a = v.get("a").and_then(Value::as_arr).unwrap();
    assert_eq!(a[1].as_f64(), Some(-25.0));
    assert_eq!(a[3], Value::Null);
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
        Some("x\"yé\n")
    );
    assert!(parse("{\"a\": 1,}").is_err());
    assert!(parse("{\"a\": 1} x").is_err());
    assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_parses_back_into_workloads_and_metrics() {
    let spec = BenchSpec::parse(&benchmark_json()).expect("BENCHMARK.json is valid");
    let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        names, known,
        "declared workloads are exactly the runnable ones"
    );
    assert!((1..=60).contains(&spec.run_seconds));

    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    for name in [
        "tuples_per_s",
        "batch_p50_ms",
        "slo_tps",
        "ok_frac",
        "peak_rss_mb",
    ] {
        assert!(spec.end_to_end.iter().any(|m| m.name == name), "{name}");
    }
    for name in [
        "datagen.gen_s",
        "hls-sim.ns_per_kernel_step",
        "core.ns_per_sim_cycle.skewed",
        "serve.tuples_per_s",
        "ha.cost_ratio",
        "wire.layer_cost_frac",
        "obs.trace_overhead_frac",
        "loadgen.late_p99_ms",
    ] {
        assert!(spec.per_layer.iter().any(|m| m.name == name), "{name}");
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn spec_rejects_duplicates_and_out_of_range_bounds() {
    let doc = |e2e: &str| {
        format!(
            r#"{{"run_seconds": 5, "workloads": [{{"name": "w", "why": "because"}}],
               "end_to_end": [{e2e}], "per_layer": [{{"name": "l", "unit": "s", "better": "lower"}}]}}"#
        )
    };
    let good = r#"{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}"#;
    assert!(BenchSpec::parse(&doc(good)).is_ok());
    let loose = r#"{"name": "m", "unit": "ms", "better": "lower", "bound": 0.3}"#;
    assert!(BenchSpec::parse(&doc(loose)).is_err());
    let unbounded = r#"{"name": "m", "unit": "ms", "better": "lower"}"#;
    assert!(BenchSpec::parse(&doc(unbounded)).is_err());
    let twice = format!("{good}, {good}");
    assert!(BenchSpec::parse(&doc(&twice)).is_err());
    let clash = r#"{"name": "w", "unit": "ms", "better": "lower", "bound": 0.1}"#;
    assert!(
        BenchSpec::parse(&doc(clash)).is_err(),
        "workload and metric share a name"
    );
}
