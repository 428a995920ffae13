(* Service-harness scaling: sustained-load throughput vs domain count.

   One fixed spec (the shared DS2-like space, default mixed workload,
   closed loop) is served by the tivd driver at increasing domain
   counts.  The summary is deterministic per domain count — the wall
   clock is the only thing that may move between runs — so the latency
   columns double as a drift check against the committed
   BENCH_service.md. *)

module Table = Tivaware_util.Table
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs
module Workload = Tivaware_service.Workload
module Shard = Tivaware_service.Shard
module Driver = Tivaware_service.Driver

let quantile result kind q =
  Obs.Histogram.quantile_label ~decimals:1
    (Obs.Registry.histogram result.Driver.obs
       ~labels:[ ("kind", Workload.kind_label kind) ]
       ~edges:Shard.latency_edges "service.latency_ms")
    q

let served result =
  Array.fold_left
    (fun acc k ->
      acc
      +. Obs.Counter.value
           (Obs.Registry.counter result.Driver.obs
              ~labels:[ ("kind", Workload.kind_label k) ]
              "service.queries"))
    0. Workload.kinds

let service_scaling ctx =
  Report.section "service"
    "Service harness: sustained-load qps vs worker domains";
  Report.expectation
    "per-domain-count summaries are deterministic (the latency columns \
     never move); wall-clock qps scales with domains up to the host's \
     core count and is flat beyond it";
  let m = Context.matrix ctx in
  let spec =
    {
      Shard.seed = ctx.Context.seed;
      engine_config = Engine.default_config;
      make_backend = (fun () -> Backend.dense m);
      meridian_count = 32;
      candidate_budget = None;
      beta = 0.5;
      rate = None;
      mix = Workload.default_mix;
      queries = 2000;
    }
  in
  let table =
    Table.create
      ~header:
        [
          "domains"; "wall_s"; "qps"; "speedup"; "closest p50/p99 ms";
          "dht p50/p99 ms";
        ]
  in
  let base_qps = ref nan in
  List.iter
    (fun domains ->
      let t0 = Unix.gettimeofday () in
      let result = Driver.run ~domains spec in
      let wall = Unix.gettimeofday () -. t0 in
      let qps = served result /. wall in
      if Float.is_nan !base_qps then base_qps := qps;
      Table.add_row table
        [
          string_of_int domains;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" qps;
          Printf.sprintf "%.2fx" (qps /. !base_qps);
          Printf.sprintf "%s / %s"
            (quantile result Workload.Closest 0.5)
            (quantile result Workload.Closest 0.99);
          Printf.sprintf "%s / %s"
            (quantile result Workload.Dht_lookup 0.5)
            (quantile result Workload.Dht_lookup 0.99);
        ];
      Obs.Gauge.set
        (Obs.Registry.gauge (Context.obs ctx)
           ~labels:[ ("domains", string_of_int domains) ]
           "service.bench.qps")
        qps)
    [ 1; 2; 4 ];
  Table.print table;
  Report.note
    "host reports %d usable core(s) (Domain.recommended_domain_count); \
     speedup saturates there — single-core hosts serialize the domains and \
     show ~1x throughout"
    (Domain.recommended_domain_count ())

let register () =
  Registry.register "service"
    "Service harness: sustained-load qps vs worker domains" service_scaling
