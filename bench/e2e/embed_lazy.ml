(* embed-lazy: Vivaldi and a sampled TIV-alert scan over a 100k-node
   lazily synthesized delay space.

   Mirrors [tivlab tiv-scan --backend lazy --nodes 100000 --rounds 10
   --pairs 5000] (model measured from a generated DS2-400, no memo,
   oracle-mode engine).  The probe hot path alone: no event simulator,
   churn or cache, plus lazy synthesis in the backend and the memory
   of 100k nodes of coordinate state. *)

open Harness
module Synthesizer = Tivaware_topology.Synthesizer
module Eval = Tivaware_tiv.Eval

let name = "embed-lazy"

let domains = 1

type sizes = {
  nodes : int;
  model : int;
  rounds : int;
  pairs : int;
  legs : int;
  err_pairs : int;
}

(* [legs], the worst fraction and [err_pairs] are tiv-scan's and
   embed's defaults. *)
let sizes ctx =
  if ctx.quick then
    { nodes = 2000; model = 100; rounds = 3; pairs = 200; legs = 64; err_pairs = 200 }
  else
    { nodes = 100_000; model = 400; rounds = 10; pairs = 5000; legs = 64; err_pairs = 2000 }

let worst_fraction = 0.1
let config ~seed = engine_config ~seed ()

type world = { backend : Backend.t }

let setup ctx =
  let s = sizes ctx in
  let source, generate_s = generate_world ~nodes:s.model in
  let model = Synthesizer.analyze source in
  ( { backend = Backend.lazy_synth ~seed:ctx.seed ~size:s.nodes model },
    [ ("topology.generate_s", generate_s) ] )

let replay ctx w = (config ~seed:ctx.seed, w.backend)

let prepare ctx w =
  let s = sizes ctx in
  let backend =
    match ctx.tracer with
    | None -> w.backend
    | Some tr -> traced_backend tr.span (Some tr.capture) w.backend
  in
  let engine = engine ~config:(config ~seed:ctx.seed) backend in
  Option.iter (fun tr -> tr.capture.clock <- (fun () -> Engine.now engine)) ctx.tracer;
  let rng = Rng.create ctx.seed in
  let sys, create_s = timed (fun () -> System.create_with_engine rng engine) in
  (* [tivlab embed] samples its error pairs from the generator as it
     stands after the system is created; tiv-scan hands that same state
     to the scan. *)
  let err_rng = Rng.copy rng in
  let predicted =
    let p i j = System.predicted sys i j in
    match ctx.tracer with None -> p | Some tr -> traced_predictor tr.span p
  in
  let frame name f =
    match ctx.tracer with
    | None -> f ()
    | Some tr ->
      Span.enter tr.span name;
      f ();
      Span.leave tr.span
  in
  let round_ms = ref [] and rounds_s = ref 0. and scan_s = ref 0. and points = ref [] in
  let run () =
    let t0 = Span.now_ns () in
    for _ = 1 to s.rounds do
      let (), t = timed (fun () -> frame "vivaldi.round" (fun () -> System.round sys)) in
      round_ms := (1000. *. t) :: !round_ms
    done;
    rounds_s := seconds_since t0;
    let (), t =
      timed (fun () ->
          frame "tiv.scan" (fun () ->
              points :=
                Eval.evaluate_sampled ~engine ~predicted ~pairs:s.pairs ~legs:s.legs
                  ~worst_fraction ~thresholds:Eval.default_thresholds rng))
    in
    scan_s := t
  in
  let finish () =
    let stats = Engine.stats engine in
    let requests = stats.Probe_stats.requests in
    let rel = System.sampled_relative_errors sys err_rng ~pairs:s.err_pairs in
    let rtt = histogram (Engine.obs engine) "measure.rtt_ms" in
    {
      ops = requests;
      values =
        [
          ("success_frac", Metric.ratio (float_of_int (Array.length rel)) (float_of_int s.err_pairs));
          ("lat_p50_ms", Obs.Histogram.quantile rtt 0.5);
          ("lat_p99_ms", Obs.Histogram.quantile rtt 0.99);
          ("embed_err_p50", if rel = [||] then nan else Stats.median rel);
          ("alert_f1", List.fold_left (fun a p -> Float.max a (Eval.f1 p)) 0. !points);
          ("vivaldi.embed_s", create_s +. !rounds_s);
          ("vivaldi.round_ms_p50", median !round_ms);
          ("tiv.scan_s", !scan_s);
        ]
        @ measure_counts (Engine.obs engine) ~ops:requests ~churn:0;
      checks =
        [
          ( "vivaldi probes = rounds x nodes",
            Probe_stats.label_count stats "vivaldi" = s.rounds * s.nodes );
        ];
    }
  in
  { create_s = Some create_s; run; finish }

let extras _ _ ~batch_s:_ = []
