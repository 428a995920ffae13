(* Measurement-plane degradation sweep: what the paper's oracle-delay
   results look like when every probe crosses a lossy, jittery network
   under a probe budget.  Not a paper figure — an ablation of the
   measurement assumptions behind Figures 15 and 20. *)

module Rng = Tivaware_util.Rng
module Table = Tivaware_util.Table
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Stats = Tivaware_util.Stats
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Online = Tivaware_meridian.Online
module Sim = Tivaware_eventsim.Sim
module Eval = Tivaware_tiv.Eval
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module System = Tivaware_vivaldi.System
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Generator = Tivaware_topology.Generator
module Probe_stats = Tivaware_measure.Probe_stats
module Budget = Tivaware_measure.Budget

(* (label, loss, jitter) sweep points.  Retries fixed at 1 so loss also
   shows up as extra issued probes, not only as failures. *)
let sweep =
  [
    ("oracle", 0., 0.);
    ("mild", 0.05, 0.1);
    ("harsh", 0.1, 0.2);
  ]

let engine_for ctx ~loss ~jitter ?(retries = 1) ?(policy = Fault.Fixed) ?profile
    ?budget ?cache_ttl ?cache_capacity () =
  let fault = { Fault.default with Fault.loss; jitter; retries; policy } in
  Engine.of_matrix
    ~config:
      {
        Engine.fault;
        profile;
        churn = None;
        dynamics = None;
        budget;
        cache_ttl;
        cache_capacity;
        charge_time = false;
        seed = ctx.Context.seed + 31;
      }
    (Context.matrix ctx)

let measure ctx =
  Report.section "measure"
    "Measurement plane: Meridian and the TIV alert under probe loss/jitter";
  Report.expectation
    "oracle row reproduces the no-engine results; loss inflates probe \
     counts and failures, jitter degrades penalties and alert accuracy";
  let m = Context.matrix ctx in
  let meridian_count = Context.meridian_count_ideal ctx in
  let cfg = Ring.unlimited_config (Matrix.size m) in

  (* Meridian closest-neighbor queries through the engine. *)
  let table =
    Table.create
      ~header:
        [
          "faults"; "perfect"; "p50_penalty"; "p90_penalty"; "failures";
          "probes/query"; "issued"; "lost"; "retried";
        ]
  in
  List.iter
    (fun (label, loss, jitter) ->
      let engine = engine_for ctx ~loss ~jitter () in
      let r =
        Experiment.run_meridian
          (Context.rng ctx (41 + int_of_float (loss *. 1000.)))
          m ~runs:3 ~termination:Query.Any_improvement ~engine ~meridian_count
          ~build:(Selectors.meridian_build m cfg) ()
      in
      let penalties = r.Experiment.base.Experiment.penalties in
      let s = Stats.summarize penalties in
      let perfect =
        let exact = Array.fold_left (fun a p -> if p = 0. then a + 1 else a) 0 penalties in
        100. *. float_of_int exact /. float_of_int (max 1 (Array.length penalties))
      in
      let st = Engine.stats engine in
      Table.add_row table
        [
          label;
          Printf.sprintf "%.1f%%" perfect;
          Printf.sprintf "%.2f" s.Stats.p50;
          Printf.sprintf "%.2f" s.Stats.p90;
          string_of_int r.Experiment.base.Experiment.failures;
          Printf.sprintf "%.1f"
            (float_of_int r.Experiment.probes
            /. float_of_int (max 1 r.Experiment.queries));
          string_of_int st.Probe_stats.issued;
          string_of_int st.Probe_stats.lost;
          string_of_int st.Probe_stats.retried;
        ])
    sweep;
  Table.print table;

  (* Per-link profile sweep: the same harsh base rates spread uniformly,
     concentrated by topology (lossy access links, jittery inter-cluster
     paths) or scattered per link at random — plus node churn on top.
     Heterogeneity, not the average rate, is what moves the tail. *)
  Report.note
    "per-link profiles at equal base rates (loss 0.1, jitter 0.2), \
     Meridian queries; churn row adds 20%% of nodes cycling up/down:";
  let cluster_of = (Context.ds2 ctx).Generator.cluster_of in
  let profile_rows =
    [
      ("uniform", None, None);
      ( "topo",
        Some (Profile.topology ~loss:0.1 ~jitter:0.2 ~cluster_of ()),
        None );
      ( "random",
        Some (Profile.random ~loss:0.1 ~jitter:0.2 ~seed:(ctx.Context.seed + 7) ()),
        None );
      ( "random+churn",
        Some (Profile.random ~loss:0.1 ~jitter:0.2 ~seed:(ctx.Context.seed + 7) ()),
        Some { Churn.default with Churn.seed = ctx.Context.seed + 9 } );
    ]
  in
  let profile_table =
    Table.create
      ~header:
        [
          "profile"; "perfect"; "p50_penalty"; "p90_penalty"; "failures";
          "issued"; "lost"; "down";
        ]
  in
  List.iter
    (fun (label, profile, churn) ->
      let engine =
        let fault = { Fault.default with Fault.loss = 0.1; jitter = 0.2; retries = 1 } in
        Engine.of_matrix
          ~config:
            {
              Engine.fault;
              profile;
              churn;
              dynamics = None;
              budget = None;
              cache_ttl = None;
              cache_capacity = None;
              charge_time = false;
              seed = ctx.Context.seed + 31;
            }
          m
      in
      let r =
        Experiment.run_meridian (Context.rng ctx 42) m ~runs:3
          ~termination:Query.Any_improvement ~engine ~meridian_count
          ~build:(Selectors.meridian_build m cfg) ()
      in
      let penalties = r.Experiment.base.Experiment.penalties in
      let s = Stats.summarize penalties in
      let perfect =
        let exact = Array.fold_left (fun a p -> if p = 0. then a + 1 else a) 0 penalties in
        100. *. float_of_int exact /. float_of_int (max 1 (Array.length penalties))
      in
      let st = Engine.stats engine in
      Table.add_row profile_table
        [
          label;
          Printf.sprintf "%.1f%%" perfect;
          Printf.sprintf "%.2f" s.Stats.p50;
          Printf.sprintf "%.2f" s.Stats.p90;
          string_of_int r.Experiment.base.Experiment.failures;
          string_of_int st.Probe_stats.issued;
          string_of_int st.Probe_stats.lost;
          string_of_int st.Probe_stats.down;
        ])
    profile_rows;
  Table.print profile_table;

  (* TIV-alert accuracy/recall at the paper's mid threshold, with the
     ratio matrix probed through the engine. *)
  Report.note
    "TIV alert at threshold 0.5, worst-10%% ground truth, alert ratios \
     probed through the engine:";
  let system = Context.vivaldi ctx in
  let predicted i j = System.predicted system i j in
  let severity = Context.severity ctx in
  let alert_table =
    Table.create ~header:[ "faults"; "alerts"; "accuracy"; "recall"; "unmeasured" ]
  in
  List.iter
    (fun (label, loss, jitter) ->
      let engine = engine_for ctx ~loss ~jitter () in
      let points =
        Eval.evaluate_engine ~engine ~predicted ~severity ~worst_fraction:0.1
          ~thresholds:[ 0.5 ]
      in
      let p = List.hd points in
      let st = Engine.stats engine in
      Table.add_row alert_table
        [
          label;
          string_of_int p.Eval.alerts;
          Printf.sprintf "%.3f" p.Eval.accuracy;
          Printf.sprintf "%.3f" p.Eval.recall;
          string_of_int st.Probe_stats.failed;
        ])
    sweep;
  Table.print alert_table;

  (* Service mode: the TTL cache amortizes repeat Meridian probes under
     a per-node budget.  Same harsh faults, with and without cache. *)
  Report.note "service mode under harsh faults (budget 50 tokens @ 5/s per node):";
  let budget = Budget.per_node ~capacity:50. ~rate:5. in
  let svc_table =
    Table.create
      ~header:
        [
          "mode"; "p50_penalty"; "failures"; "issued"; "denied"; "hit";
          "stale"; "evicted";
        ]
  in
  List.iter
    (fun (mode, cache_ttl, cache_capacity) ->
      let engine =
        engine_for ctx ~loss:0.1 ~jitter:0.2 ~budget ?cache_ttl ?cache_capacity
          ()
      in
      let r =
        Experiment.run_meridian (Context.rng ctx 43) m ~runs:3
          ~termination:Query.Any_improvement ~engine ~meridian_count
          ~build:(Selectors.meridian_build m cfg) ()
      in
      let s = Stats.summarize r.Experiment.base.Experiment.penalties in
      let st = Engine.stats engine in
      Table.add_row svc_table
        [
          mode;
          Printf.sprintf "%.2f" s.Stats.p50;
          string_of_int r.Experiment.base.Experiment.failures;
          string_of_int st.Probe_stats.issued;
          string_of_int st.Probe_stats.denied;
          string_of_int st.Probe_stats.hits;
          string_of_int st.Probe_stats.stale;
          string_of_int st.Probe_stats.evicted;
        ])
    [
      ("on-demand", None, None);
      ("cached ttl=60", Some 60., None);
      ("cached ttl=60 cap=512", Some 60., Some 512);
    ];
  Table.print svc_table;

  (* Retry policies head to head under 20% loss: identical probe
     workload, fixed immediate retransmits vs adaptive backoff whose
     retry budget tracks the per-node loss estimate. *)
  Report.note
    "retry policies under 20%% loss (same workload; adaptive should \
     spend fewer attempts for a comparable success rate):";
  let policy_table =
    Table.create
      ~header:[ "policy"; "requests"; "issued"; "attempts/req"; "failed"; "success" ]
  in
  let n = Matrix.size m in
  List.iter
    (fun (label, retries, policy) ->
      let engine = engine_for ctx ~loss:0.2 ~jitter:0. ~retries ~policy () in
      let wl = Context.rng ctx 47 in
      let requests = 4000 in
      for _ = 1 to requests do
        let i = Rng.int wl n in
        let j = (i + 1 + Rng.int wl (n - 1)) mod n in
        ignore (Engine.rtt engine i j)
      done;
      let st = Engine.stats engine in
      Table.add_row policy_table
        [
          label;
          string_of_int st.Probe_stats.requests;
          string_of_int st.Probe_stats.issued;
          Printf.sprintf "%.2f"
            (float_of_int st.Probe_stats.issued /. float_of_int requests);
          string_of_int st.Probe_stats.failed;
          Printf.sprintf "%.1f%%"
            (100.
            *. float_of_int (requests - st.Probe_stats.failed)
            /. float_of_int requests);
        ])
    [
      ("fixed r=3", 3, Fault.Fixed);
      ("backoff r=3", 3, Fault.Backoff Fault.default_backoff);
      ("adaptive r<=3", 3, Fault.adaptive ~target_failure:0.01 ());
    ];
  Table.print policy_table;

  (* Probe-time-aware Meridian: the same online queries cost simulator
     time for every probe; loss and retries now show up as latency. *)
  Report.note
    "online query latency, probe time charged on the simulator clock \
     (faults should strictly increase virtual latency):";
  let nodes =
    Rng.sample_indices (Context.rng ctx 53) ~n ~k:(min meridian_count (n / 2))
  in
  let overlay =
    Overlay.build (Context.rng ctx 54) (Backend.dense m) cfg ~meridian_nodes:nodes
  in
  let online_table =
    Table.create
      ~header:[ "faults"; "queries"; "latency p50 ms"; "latency mean ms"; "probe_ms" ]
  in
  List.iter
    (fun (label, loss, jitter) ->
      let engine =
        engine_for ctx ~loss ~jitter
          ~policy:(Fault.Backoff Fault.default_backoff) ()
      in
      let sim = Sim.create () in
      Online.attach sim engine;
      let pick = Context.rng ctx 55 in
      let latencies = ref [] in
      let queries = 60 in
      for _ = 1 to queries do
        let client = Rng.int pick n in
        let start = nodes.(Rng.int pick (Array.length nodes)) in
        let target = Rng.int pick n in
        if
          (not (Overlay.is_meridian overlay target))
          && client <> start
          && not (Matrix.is_missing m client start)
        then begin
          let o = Online.closest sim overlay engine ~client ~start ~target in
          latencies := o.Online.latency :: !latencies
        end
      done;
      let lat = Array.of_list !latencies in
      let st = Engine.stats engine in
      Table.add_row online_table
        [
          label;
          string_of_int (Array.length lat);
          Printf.sprintf "%.1f" (Stats.median lat);
          Printf.sprintf "%.1f" (Stats.mean lat);
          Printf.sprintf "%.0f" st.Probe_stats.probe_ms;
        ])
    sweep;
  Table.print online_table

let register () =
  Registry.register "measure"
    "Probe engine: degradation under loss/jitter, budgets, caching" measure
