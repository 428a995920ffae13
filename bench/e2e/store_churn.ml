(* store-churn: replica reads through the TIV alert policy under churn,
   3% loss and diurnal dynamics.

   Mirrors [tivlab store --policy alert --loss 0.03 --churn --dynamics
   diurnal --nodes 1600 --devices 96 --objects 4096 --reads 100000
   --duration 2000] (dense DS2-1600, maintenance Vivaldi on seed+1).
   The measure layer dominates: every read probes through faults, and
   every clock step advances churn and diurnal dynamics. *)

open Harness
module Scenario = Tivaware_store.Scenario
module Policy = Tivaware_store.Policy

let name = "store-churn"

let domains = 1

type sizes = { nodes : int; devices : int; objects : int; reads : int; duration : float }

let sizes ctx =
  if ctx.quick then { nodes = 200; devices = 24; objects = 256; reads = 2000; duration = 40. }
  else { nodes = 1600; devices = 96; objects = 4096; reads = 100_000; duration = 2000. }

let config ~seed = engine_config ~loss:0.03 ~churn:true ~dynamics:`Diurnal ~seed ()

let scenario_config ctx =
  let s = sizes ctx in
  {
    Scenario.default_config with
    Scenario.devices = s.devices;
    objects = s.objects;
    reads = s.reads;
    duration = s.duration;
    seed = ctx.seed + 17;
  }

type world = embedded

let setup ctx = embedded_world ~seed:ctx.seed ~nodes:(sizes ctx).nodes ~config

let replay ctx w = (config ~seed:ctx.seed, w.backend)

let prepare ctx w =
  let read_us = ref [] and pass_ms = ref [] and last = ref 0. in
  let backend, predictor, trace, repair_trace =
    match ctx.tracer with
    | None -> (w.backend, w.predictor, None, None)
    | Some tr ->
      (* Reads are seen only through the callbacks that end them, so
         each span runs from the previous callback to this one and is
         named by the callback that closes it. *)
      let span = tr.span in
      let close name acc scale =
        Span.leave ~name span;
        let t = Span.now_ns () in
        acc := ((t -. !last) /. scale) :: !acc;
        last := t;
        Span.enter span "store.op"
      in
      ( traced_backend ~count_ops:false span (Some tr.capture) w.backend,
        traced_predictor span w.predictor,
        Some
          (fun _ ->
            close "store.read" read_us 1e3;
            span.Span.op <- span.Span.op + 1),
        Some (fun _ -> close "store.repair_pass" pass_ms 1e6) )
  in
  let config = config ~seed:ctx.seed in
  let engine = engine ~config backend in
  Option.iter (fun tr -> tr.capture.clock <- (fun () -> Engine.now engine)) ctx.tracer;
  let sc, create_s =
    timed (fun () ->
        Scenario.create ~config:(scenario_config ctx) ~policy:(Policy.alert predictor)
          ~backend ~engine ())
  in
  let result = ref None in
  let run () =
    Option.iter
      (fun tr ->
        last := Span.now_ns ();
        Span.enter tr.span "store.op")
      ctx.tracer;
    result := Some (Scenario.run ?trace ?repair_trace sc);
    Option.iter (fun tr -> Span.leave ~name:"store.tail" tr.span) ctx.tracer
  in
  let finish () =
    let r = Option.get !result in
    let stats = Engine.stats engine in
    let f = float_of_int in
    let lat = r.Scenario.latencies in
    let label = Probe_stats.label_count stats in
    let traced =
      match ctx.tracer with
      | None -> []
      | Some _ ->
        let us = Array.of_list !read_us in
        [
          ("store.read_us_p50", percentile us 50.);
          ("store.read_us_p99", percentile us 99.);
          ("store.repair_pass_ms_p50", median !pass_ms);
        ]
    in
    {
      ops = r.Scenario.completed;
      values =
        [
          ("success_frac", Metric.ratio (f r.Scenario.completed) (f r.Scenario.issued));
          ("lat_p50_ms", if lat = [||] then nan else Stats.median lat);
          ("lat_p99_ms", percentile lat 99.);
          ("store.handoffs_per_read", Metric.ratio (f r.Scenario.handoffs) (f r.Scenario.issued));
          ( "store.dead_attempts_per_read",
            Metric.ratio (f r.Scenario.dead_attempts) (f r.Scenario.issued) );
        ]
        @ measure_counts (Engine.obs engine) ~ops:r.Scenario.completed
            ~churn:(churn_transitions engine)
        @ traced;
      checks =
        [
          ("reads = issued + skipped", (sizes ctx).reads = r.Scenario.issued + r.Scenario.skipped);
          ("issued = completed + failed", r.Scenario.issued = r.Scenario.completed + r.Scenario.failed);
          ("|latencies| = completed", Array.length lat = r.Scenario.completed);
          ( "store + store_repair probes = issued",
            label "store" + label "store_repair" = stats.Probe_stats.issued );
        ];
    }
  in
  { create_s = Some create_s; run; finish }

let extras _ _ ~batch_s:_ = []
