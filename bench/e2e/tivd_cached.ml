(* tivd-cached: the query server on two domains with the measurement
   cache on.

   A batch serves 6000 queries in the 6:6:1 mix in exact proportion:
   2769 closest-node queries, 2769 DHT lookups and 462 multicast
   refreshes, each kind as a [tivd --domains 2 --rate 200 --cache-ttl 30
   --cache-capacity 4096] run of its own (dense DS2-400).  A mixed
   stream draws every query's kind at random, so the number of
   refreshes, which cost ~99% of the time, and their split between the
   two domains would vary by ±10% from seed to seed, and throughput
   with them.  The only workload that uses the service layer (work
   queue, shards, registry merge), Meridian ring walks, Chord lookups
   and multicast refresh, and the only one on the cache hit/stale/evict
   path.  It has no churn.  Queries arrive as an open-loop Poisson
   stream in simulated time; in wall time each batch runs as fast as it
   can. *)

open Harness
module Matrix = Tivaware_delay_space.Matrix
module Workload = Tivaware_service.Workload
module Shard = Tivaware_service.Shard
module Driver = Tivaware_service.Driver

let name = "tivd-cached"

let domains = 2

type sizes = { nodes : int; queries : int; meridian : int }

let sizes ctx =
  if ctx.quick then { nodes = 100; queries = 300; meridian = 16 }
  else { nodes = 400; queries = 6000; meridian = 32 }

let rate = 200.

let only kind =
  match kind with
  | Workload.Closest -> { Workload.closest = 1; dht = 0; multicast = 0 }
  | Workload.Dht_lookup -> { Workload.closest = 0; dht = 1; multicast = 0 }
  | Workload.Multicast_refresh -> { Workload.closest = 0; dht = 0; multicast = 1 }

(* Each kind's share of the batch's queries, 6:6:1. *)
let streams ctx =
  let q = (sizes ctx).queries in
  let closest = q * 6 / 13 in
  [ (Workload.Closest, closest); (Workload.Dht_lookup, closest);
    (Workload.Multicast_refresh, q - (2 * closest)) ]

let config ~seed = engine_config ~cache:(30., 4096) ~seed ()

type world = { matrix : Matrix.t }

let replay ctx w = (config ~seed:ctx.seed, Backend.dense w.matrix)

let spec ~kind ~queries ctx make_backend =
  let s = sizes ctx in
  {
    Shard.seed = ctx.seed;
    engine_config = config ~seed:ctx.seed;
    make_backend;
    meridian_count = s.meridian;
    candidate_budget = None;
    beta = 0.5;
    rate = Some rate;
    mix = only kind;
    queries;
  }

let plain w () = Backend.dense w.matrix

(* A run of no queries is one shard build (meridian overlay, Chord
   ring, multicast tree and engine): what every domain pays before it
   serves. *)
let build_shard ctx w =
  ignore (Driver.run_sequential (spec ~kind:Workload.Closest ~queries:0 ctx (plain w)))

let setup ctx =
  let matrix, generate_s = generate_world ~nodes:(sizes ctx).nodes in
  let w = { matrix } in
  let (), build_s = timed (fun () -> build_shard ctx w) in
  (w, [ ("topology.generate_s", generate_s); ("scenario.create_s", build_s) ])

(* The open-loop arrival times the shards slave their engine clocks to,
   one stream after another. *)
let arrivals ctx c =
  let t = ref 0. in
  List.iter
    (fun (kind, queries) ->
      for qid = 0 to queries - 1 do
        let gap, _, _ = Workload.draws ~seed:ctx.seed ~qid ~rate:(Some rate) (only kind) in
        t := !t +. gap;
        push_time c !t
      done)
    (streams ctx)

let kind_count obs name kind =
  counter obs
    (Obs.Registry.series_name name [ ("kind", Workload.kind_label kind) ])

let prepare ctx w =
  (* One span buffer per backend-factory call: each worker domain
     records into its own, and they are folded in after the join. *)
  let buffers = ref [] and lock = Mutex.create () in
  let make_backend =
    match ctx.tracer with
    | None -> plain w
    | Some tr ->
      if tr.capture.nsched = 0 then arrivals ctx tr.capture;
      fun () ->
        let span = Span.create () and capture = new_capture () in
        Mutex.protect lock (fun () -> buffers := (span, capture) :: !buffers);
        traced_backend span (Some capture) (Backend.dense w.matrix)
  in
  let queries = (sizes ctx).queries in
  let results = ref [] in
  let finish () =
    let obs = Obs.Merge.registries (List.map (fun r -> r.Driver.obs) !results) in
    Option.iter
      (fun tr ->
        List.iter
          (fun (span, capture) ->
            Span.absorb tr.span span;
            if tr.capture.npairs = 0 then begin
              Array.blit capture.pairs 0 tr.capture.pairs 0 (2 * capture.npairs);
              tr.capture.npairs <- capture.npairs
            end)
          (List.rev !buffers))
      ctx.tracer;
    let sum name = Array.fold_left (fun a k -> a +. kind_count obs name k) 0. Workload.kinds in
    let closest =
      Obs.Registry.histogram obs
        ~labels:[ ("kind", Workload.kind_label Workload.Closest) ]
        ~edges:Shard.latency_edges "service.latency_ms"
    in
    let mean key =
      match series obs key with
      | Some (Obs.Registry.Histogram h) when Obs.Histogram.count h > 0 -> Obs.Histogram.mean h
      | _ -> 0.
    in
    {
      ops = queries;
      values =
        [
          ("success_frac", 1. -. Metric.ratio (sum "service.failures") (sum "service.queries"));
          ("lat_p50_ms", Obs.Histogram.quantile closest 0.5);
          ("lat_p99_ms", Obs.Histogram.quantile closest 0.99);
          ("meridian.hops_per_query", mean "meridian.query_hops");
          ("meridian.probes_per_query", mean "meridian.query_probes");
          ("dht.hops_mean", mean "service.hops");
          ( "overlay.switches_per_refresh",
            Metric.ratio (counter obs "service.switches")
              (kind_count obs "service.queries" Workload.Multicast_refresh) );
        ]
        @ measure_counts obs ~ops:queries ~churn:0;
      checks =
        List.map
          (fun (kind, n) ->
            ( Printf.sprintf "service.queries{kind=%s} = %d" (Workload.kind_label kind) n,
              int_of_float (kind_count obs "service.queries" kind) = n ))
          (streams ctx);
    }
  in
  let run () =
    results :=
      List.map
        (fun (kind, queries) -> Driver.run ~domains (spec ~kind ~queries ctx make_backend))
        (streams ctx)
  in
  { create_s = None; run; finish }

(* Parallel efficiency and per-kind service times, from untraced
   sequential runs on the calling domain.  The per-kind times subtract
   a shard build. *)
let extras ctx w ~batch_s =
  let sequential kind queries =
    snd (timed (fun () -> Driver.run_sequential (spec ~kind ~queries ctx (plain w))))
  in
  let build_s = median (List.init 3 (fun _ -> snd (timed (fun () -> build_shard ctx w)))) in
  let per_kind kind queries =
    let queries = if ctx.quick then 20 else queries in
    ( Printf.sprintf "service.%s_us" (Workload.kind_label kind),
      (sequential kind queries -. build_s) /. float_of_int queries *. 1e6 )
  in
  let batch_sequential =
    List.fold_left (fun a (kind, queries) -> a +. sequential kind queries) 0. (streams ctx)
  in
  [
    ("service.parallel_eff", batch_sequential /. (float_of_int domains *. batch_s));
    (* sized for roughly 0.3 s each: a refresh is a whole-tree pass *)
    per_kind Workload.Closest 20_000;
    per_kind Workload.Dht_lookup 100_000;
    per_kind Workload.Multicast_refresh 30;
  ]
