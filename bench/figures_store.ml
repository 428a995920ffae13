(* Object-store read path: not a paper figure — the replica-selection
   experiment behind lib/store.  One arm per policy over the identical
   world (same ring, same Zipf reads, same churn schedule, same diurnal
   route dynamics): naive measure-once caching, Vivaldi coordinates,
   Meridian-style probing, and the TIV-alerted hybrid that probes but
   quarantines pairs whose coordinate prediction collapses below the
   alert threshold.  Companion to test/test_store_properties.ml and the
   committed BENCH_store.md. *)

module Table = Tivaware_util.Table
module Stats = Tivaware_util.Stats
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Selectors = Tivaware_core.Selectors
module Backend = Tivaware_backend.Delay_backend
module Selection = Tivaware_tiv.Selection
module Store_scenario = Tivaware_store.Scenario

(* One policy arm, mirroring `tivlab store --loss 0.03 --churn
   --dynamics diurnal`: the scenario engine is rebuilt per arm with the
   same seeds, so every policy sees the identical fault/churn/dynamics
   streams; coordinate-consuming policies pay for their embedding on a
   separate maintenance engine (same world, seed + 1) whose probes are
   reported as maintenance overhead. *)
let arm ctx policy_kind =
  let backend = Backend.dense (Context.matrix ctx) in
  let seed = ctx.Context.seed in
  let config engine_seed =
    {
      Engine.fault = { Fault.default with Fault.loss = 0.03 };
      profile = None;
      churn = Some { Churn.default with Churn.fraction = 0.2; seed = engine_seed };
      dynamics =
        Some
          {
            Dynamics.default with
            Dynamics.diurnal = Some Dynamics.default_diurnal;
            seed = engine_seed;
          };
      budget = None;
      cache_ttl = None;
      cache_capacity = None;
      charge_time = false;
      seed = engine_seed;
    }
  in
  let engine = Backend.engine ~config:(config seed) backend in
  let embed, maint_probes =
    Selectors.maintenance_embedding ~config:(config (seed + 1)) backend
  in
  let policy =
    match policy_kind with
    | `Naive -> Selection.cached ()
    | `Vivaldi -> Selection.coordinate (embed ())
    | `Meridian -> Selection.probe ()
    | `Alert -> Selection.alert (embed ())
  in
  let sc =
    Store_scenario.create
      ~config:{ Store_scenario.default_config with Store_scenario.seed = seed + 17 }
      ~policy ~backend ~engine ()
  in
  let result = Store_scenario.run sc in
  (result, maint_probes ())

let store ctx =
  Report.section "store"
    "Object-store reads over the consistent-hashing ring: replica \
     selection policy vs read latency under churn and route dynamics";
  Report.expectation
    "the TIV-alerted policy beats naive caching on p99 read latency \
     (measure-once estimates go stale under churn and the diurnal \
     loss swing) while spending fewer foreground probes than \
     exhaustive Meridian-style probing";
  let table =
    Table.create
      ~header:
        [
          "policy"; "reads"; "mean ms"; "p50 ms"; "p99 ms"; "probes/read";
          "maint probes"; "dead"; "handoffs"; "rehomed";
        ]
  in
  let row name kind =
    let result, maint = arm ctx kind in
    let lat = result.Store_scenario.latencies in
    let completed = max 1 result.Store_scenario.completed in
    let p99 = Stats.percentile lat 99. in
    Table.add_row table
      [
        name;
        string_of_int result.Store_scenario.completed;
        Printf.sprintf "%.1f" (Stats.mean lat);
        Printf.sprintf "%.1f" (Stats.percentile lat 50.);
        Printf.sprintf "%.1f" p99;
        Printf.sprintf "%.2f"
          (float_of_int result.Store_scenario.policy_probes
          /. float_of_int completed);
        string_of_int maint;
        string_of_int result.Store_scenario.dead_attempts;
        string_of_int result.Store_scenario.handoffs;
        string_of_int result.Store_scenario.repair.Store_scenario.total_rehomed;
      ];
    (p99, result.Store_scenario.policy_probes)
  in
  let naive_p99, _ = row "naive" `Naive in
  let _ = row "coordinate" `Vivaldi in
  let _, meridian_probes = row "probe" `Meridian in
  let alert_p99, alert_probes = row "alert" `Alert in
  Table.print table;
  Report.measured
    "p99 read latency %.1f ms alert vs %.1f ms naive; alert foreground \
     probes %d vs %d meridian"
    alert_p99 naive_p99 alert_probes meridian_probes;
  Report.note
    "all arms replay the identical churn schedule and diurnal cycle; \
     naive trusts its first measurement forever, so its tail tracks \
     replicas that died or were mismeasured after the cache filled"

let register () =
  Registry.register "store"
    "Store replica selection: policy vs read latency under dynamics"
    store
