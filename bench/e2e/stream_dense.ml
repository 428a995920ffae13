(* stream-dense: a live-streaming swarm with TIV-alert neighbour
   selection under churn and route flaps.

   Mirrors [tivlab stream --policy alert --churn --dynamics routeflap
   --nodes 1600 --members 320 --degree 8 --duration 120] (dense
   DS2-1600, maintenance Vivaldi on seed+1).  The only event-heavy
   workload: chunk pushes, pulls and deadline events go through the
   event simulator, the swarm's buffers and multicast repair. *)

open Harness
module Swarm = Tivaware_stream.Swarm
module Select = Tivaware_stream.Select

let name = "stream-dense"

let domains = 1

type sizes = { nodes : int; members : int; degree : int; duration : float }

let sizes ctx =
  if ctx.quick then { nodes = 200; members = 40; degree = 4; duration = 10. }
  else { nodes = 1600; members = 320; degree = 8; duration = 120. }

let config ~seed = engine_config ~churn:true ~dynamics:`Routeflap ~seed ()

(* The swarm defaults are tivlab stream's: 400 ms chunks, 800 ms
   deadline, 16-chunk buffer, 2 s pulls, 5 s repair. *)
let swarm_config ctx =
  let s = sizes ctx in
  {
    Swarm.default_config with
    Swarm.members = s.members;
    max_degree = s.degree;
    duration = s.duration;
    seed = ctx.seed + 23;
  }

type world = embedded

let setup ctx = embedded_world ~seed:ctx.seed ~nodes:(sizes ctx).nodes ~config

let replay ctx w = (config ~seed:ctx.seed, w.backend)

let prepare ctx w =
  let backend, predictor =
    match ctx.tracer with
    | None -> (w.backend, w.predictor)
    | Some tr ->
      ( traced_backend tr.span (Some tr.capture) w.backend,
        traced_predictor tr.span w.predictor )
  in
  let engine = engine ~config:(config ~seed:ctx.seed) backend in
  Option.iter (fun tr -> tr.capture.clock <- (fun () -> Engine.now engine)) ctx.tracer;
  let sw, create_s =
    timed (fun () ->
        Swarm.create ~config:(swarm_config ctx) ~select:(Select.alert predictor) ~backend
          ~engine ())
  in
  let result = ref None in
  let finish () =
    let r = Option.get !result in
    let stats = Engine.stats engine in
    let f = float_of_int in
    let judged = r.Swarm.on_time + r.Swarm.missed in
    let receive = histogram (Engine.obs engine) "stream.receive_ms" in
    let label = Probe_stats.label_count stats in
    {
      ops = judged;
      values =
        [
          ("success_frac", Metric.ratio (f r.Swarm.on_time) (f judged));
          ("lat_p50_ms", Obs.Histogram.quantile receive 0.5);
          ("lat_p99_ms", Obs.Histogram.quantile receive 0.99);
          ("stream.deliveries_per_op", Metric.ratio (f r.Swarm.deliveries) (f judged));
          ("stream.dup_frac", Metric.ratio (f r.Swarm.duplicates) (f r.Swarm.deliveries));
          ("stream.pull_hit_frac", Metric.ratio (f r.Swarm.pull_hits) (f r.Swarm.pull_requests));
          ("stream.regrafts", f (r.Swarm.repair.Swarm.reattached + r.Swarm.repair.Swarm.rejoined));
        ]
        @ measure_counts (Engine.obs engine) ~ops:judged ~churn:(churn_transitions engine);
      checks =
        [
          ( "on_time + missed + down = chunks x (members - 1)",
            judged + r.Swarm.down_at_deadline = r.Swarm.chunks * (r.Swarm.members - 1) );
          ( "stream + stream_repair probes = issued",
            label "stream" + label "stream_repair" = stats.Probe_stats.issued );
        ];
    }
  in
  { create_s = Some create_s; run = (fun () -> result := Some (Swarm.run sw)); finish }

let extras _ _ ~batch_s:_ = []
