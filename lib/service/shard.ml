module Rng = Tivaware_util.Rng
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Multicast = Tivaware_overlay.Multicast

type spec = {
  seed : int;
  engine_config : Engine.config;
  make_backend : unit -> Backend.t;
  meridian_count : int;
  candidate_budget : int option;
  beta : float;
  rate : float option;
  mix : Workload.mix;
  queries : int;
}

type t = {
  spec : spec;
  backend : Backend.t;
  engine : Engine.t;
  overlay : Overlay.t;
  chord : Chord.t;
  tree : Multicast.t;
  meridian_nodes : int array;
  size : int;
  queries_c : Obs.Counter.t array;  (* per kind, Workload.kind_index order *)
  failures_c : Obs.Counter.t array;
  latency_h : Obs.Histogram.t array;
  probe_ms_c : Obs.Counter.t;
  hops_h : Obs.Histogram.t;
  switches_c : Obs.Counter.t;
}

(* A refresh pass is charged every probe it sends: over an hour of
   probe time for a 2000-node tree's first pass on an uncached engine,
   so the edges run on to 1e7 ms. *)
let latency_edges =
  [| 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.;
     10000.; 20000.; 50000.; 1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7 |]

let hops_edges = [| 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10.; 12.; 16.; 24.; 32. |]

let validate spec =
  Workload.validate_mix spec.mix;
  if spec.queries < 0 then
    invalid_arg "Shard.create: queries must be non-negative";
  if spec.meridian_count < 1 then
    invalid_arg "Shard.create: meridian_count must be >= 1";
  match spec.rate with
  | Some r when not (r > 0.) ->
    invalid_arg "Shard.create: rate must be positive"
  | _ -> ()

let create spec =
  validate spec;
  let backend = spec.make_backend () in
  let n = Backend.size backend in
  if spec.meridian_count > n then
    invalid_arg "Shard.create: meridian_count exceeds the backend size";
  (* World construction consumes the shard generator in a fixed order
     (meridian sample, overlay build, join-order permutation), so every
     shard of a run — and the sequential driver — builds the exact same
     overlay, ring set and tree from [spec.seed] alone. *)
  let rng = Rng.create spec.seed in
  let meridian_nodes = Rng.sample_indices rng ~n ~k:spec.meridian_count in
  let cfg = { Ring.default_config with beta = spec.beta } in
  let overlay =
    Overlay.build ?candidate_budget:spec.candidate_budget rng backend cfg
      ~meridian_nodes
  in
  let truth = Backend.query backend in
  let chord = Chord.build ~predict:truth n in
  let join_order = Rng.permutation rng n in
  let engine = Backend.engine ~config:spec.engine_config backend in
  (* The world is built from ground truth, before the backend's
     instruments are attached: only query traffic is metered. *)
  let tree = Multicast.build ~predict:truth engine ~join_order in
  Backend.attach_obs backend (Engine.obs engine);
  let obs = Engine.obs engine in
  let per_kind f =
    Array.map
      (fun k -> f ~labels:[ ("kind", Workload.kind_label k) ])
      Workload.kinds
  in
  {
    spec;
    backend;
    engine;
    overlay;
    chord;
    tree;
    meridian_nodes;
    size = n;
    queries_c = per_kind (fun ~labels -> Obs.Registry.counter obs ~labels "service.queries");
    failures_c = per_kind (fun ~labels -> Obs.Registry.counter obs ~labels "service.failures");
    latency_h =
      per_kind (fun ~labels ->
          Obs.Registry.histogram obs ~labels ~edges:latency_edges
            "service.latency_ms");
    probe_ms_c = Obs.Registry.counter obs "measure.probe_ms";
    hops_h = Obs.Registry.histogram obs ~edges:hops_edges "service.hops";
    switches_c = Obs.Registry.counter obs "service.switches";
  }

(* Per-kind service latency sources: a closest query and a refresh pass
   cost what their probes cost (the engine's charged probe_ms delta); a
   DHT lookup's latency is the accumulated delay of its route. *)
let execute t kind qrng =
  let i = Workload.kind_index kind in
  Obs.Counter.incr t.queries_c.(i);
  match kind with
  | Workload.Closest ->
    let start = Rng.choice qrng t.meridian_nodes in
    let target = Rng.int qrng t.size in
    let before = Obs.Counter.value t.probe_ms_c in
    let out = Query.closest t.overlay t.engine ~start ~target in
    if Float.is_nan out.Query.chosen_delay then
      Obs.Counter.incr t.failures_c.(i);
    Obs.Histogram.observe t.latency_h.(i) (Obs.Counter.value t.probe_ms_c -. before)
  | Workload.Dht_lookup ->
    let source = Rng.int qrng t.size in
    let key = Rng.int qrng Id_space.modulus in
    let r = Chord.lookup t.chord t.backend ~source ~key in
    Obs.Histogram.observe t.hops_h (float_of_int r.Chord.hops);
    Obs.Histogram.observe t.latency_h.(i) r.Chord.latency
  | Workload.Multicast_refresh ->
    let before = Obs.Counter.value t.probe_ms_c in
    let switches = Multicast.refresh t.tree qrng t.engine in
    Obs.Counter.add t.switches_c (float_of_int switches);
    Obs.Histogram.observe t.latency_h.(i) (Obs.Counter.value t.probe_ms_c -. before)

let run_partition t ~domain ~domains =
  if domains < 1 then invalid_arg "Shard.run_partition: domains must be >= 1";
  if domain < 0 || domain >= domains then
    invalid_arg "Shard.run_partition: domain out of range";
  let spec = t.spec in
  (* Every shard walks the full query stream to accumulate the shared
     open-loop arrival clock; it executes only its own residue class.
     Per-query generators make the skipped draws free of side effects
     on the executed ones. *)
  let arrival = ref 0.0 in
  for qid = 0 to spec.queries - 1 do
    let gap, kind, qrng =
      Workload.draws ~seed:spec.seed ~qid ~rate:spec.rate spec.mix
    in
    arrival := !arrival +. gap;
    if qid mod domains = domain then begin
      (match spec.rate with
      | Some _ -> Engine.advance_to t.engine !arrival
      | None -> ());
      execute t kind qrng
    end
  done

let obs t = Engine.obs t.engine
let clock t = Engine.now t.engine
