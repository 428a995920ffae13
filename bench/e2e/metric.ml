(* The metric catalogue: every number the benchmark prints, with its
   unit, whether BENCHMARK.json declares it, and whether it depends on
   the machine.

   - [E2e] metrics are the end-to-end gate (BENCHMARK.json
     "end_to_end"), printed by every workload in an untraced run.
   - [Layer] metrics are BENCHMARK.json "per_layer", printed by every
     workload in a traced run.
   - [Extra] metrics apply to some workloads only; they are printed and
     written to --json but not declared, because the gate needs every
     declared metric on every workload.

   [Det] metrics are pure functions of the workload and its seed: a
   traced and an untraced run must agree on them exactly.  [Wall]
   metrics depend on the machine. *)

type tier = E2e | Layer | Extra
type kind = Wall | Det

type spec = { name : string; unit : string; tier : tier; kind : kind }

let catalogue =
  let m tier kind name unit = { name; unit; tier; kind } in
  [
    m E2e Wall "setup_s" "s";
    m E2e Wall "ops_per_s" "op/s";
    m E2e Wall "peak_rss_mb" "MB";
    m E2e Det "probes_per_op" "probe/op";
    m E2e Det "success_frac" "ratio";
    m Extra Det "lat_p50_ms" "sim_ms";
    m Extra Det "lat_p99_ms" "sim_ms";
    m Extra Det "embed_err_p50" "ratio";
    m Extra Det "alert_f1" "ratio";
    m Layer Wall "topology.generate_s" "s";
    m Layer Wall "scenario.create_s" "s";
    m Layer Wall "scenario.self_ns_per_op" "ns";
    m Layer Det "backend.queries_per_op" "query/op";
    m Layer Wall "backend.query_ns" "ns";
    m Layer Wall "backend.share" "ratio";
    m Layer Wall "measure.probe_ns" "ns";
    m Layer Wall "measure.advance_ns" "ns";
    m Layer Wall "gc.minor_words_per_op" "word/op";
    m Layer Wall "gc.promoted_words_per_op" "word/op";
    m Layer Wall "gc.major_collections" "count";
    m Layer Wall "gc.top_heap_mb" "MB";
    m Layer Wall "trace.overhead_frac" "ratio";
    m Extra Det "measure.requests_per_op" "req/op";
    m Extra Det "measure.cache_hit_frac" "ratio";
    m Extra Det "measure.cache_stale_frac" "ratio";
    m Extra Det "measure.evictions_per_op" "count/op";
    m Extra Det "measure.lost_frac" "ratio";
    m Extra Det "measure.down_frac" "ratio";
    m Extra Det "measure.churn_transitions_per_op" "count/op";
    m Extra Wall "vivaldi.embed_s" "s";
    m Extra Wall "vivaldi.round_ms_p50" "ms";
    m Extra Wall "vivaldi.predict_ns" "ns";
    m Extra Det "vivaldi.predicts_per_op" "call/op";
    m Extra Wall "tiv.scan_s" "s";
    m Extra Wall "store.read_us_p50" "us";
    m Extra Wall "store.read_us_p99" "us";
    m Extra Wall "store.repair_pass_ms_p50" "ms";
    m Extra Det "store.handoffs_per_read" "count/op";
    m Extra Det "store.dead_attempts_per_read" "count/op";
    m Extra Det "stream.deliveries_per_op" "count/op";
    m Extra Det "stream.dup_frac" "ratio";
    m Extra Det "stream.pull_hit_frac" "ratio";
    m Extra Det "stream.regrafts" "count";
    m Extra Wall "service.parallel_eff" "ratio";
    m Extra Wall "service.closest_us" "us";
    m Extra Wall "service.dht_us" "us";
    m Extra Wall "service.multicast_us" "us";
    m Extra Det "meridian.hops_per_query" "hop/query";
    m Extra Det "meridian.probes_per_query" "probe/query";
    m Extra Det "dht.hops_mean" "hop";
    m Extra Det "overlay.switches_per_refresh" "count/op";
  ]

let find name =
  match List.find_opt (fun s -> s.name = name) catalogue with
  | Some s -> s
  | None -> invalid_arg ("Metric.find: undeclared metric " ^ name)

let declared tier = List.filter (fun s -> s.tier = tier) catalogue
let is_det name = (find name).kind = Det

(* [a / b], 0 when nothing was attempted (a ratio of nothing is no
   evidence of a fault, and nan would fail the finiteness check). *)
let ratio a b = if b = 0. then 0. else a /. b

(* Every digit: the gate compares raw measurements. *)
let json_number v = Printf.sprintf "%.17g" v
