(* Shared pieces of the end-to-end benchmark: the workload interface,
   the engine configurations the mirrored CLI commands build, and the
   traced wrappers the benchmark puts around the program's layers. *)

module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Probe_stats = Tivaware_measure.Probe_stats
module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Obs = Tivaware_obs
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module System = Tivaware_vivaldi.System

(* ---------------------------------------------------------------- *)
(* Clocks and process readings                                       *)

let seconds_since start_ns = (Span.now_ns () -. start_ns) /. 1e9

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, seconds_since t0)

let median xs = if xs = [] then nan else Stats.median (Array.of_list xs)

let percentile a p = if Array.length a = 0 then nan else Stats.percentile a p

(* The text after [field:] in /proc/self/status, trimmed. *)
let status_field field =
  let prefix = field ^ ":" in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          Some (String.trim (String.sub line (String.length prefix)
                               (String.length line - String.length prefix)))
        else None)
      (String.split_on_char '\n' status)

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* ---------------------------------------------------------------- *)
(* The world and the engine configurations                           *)

(* The delay space every workload runs over is DS2-like at this fixed
   seed, as the paper evaluates on fixed measured data sets; --seed
   drives everything the workload draws (samples, churn, faults,
   dynamics, query streams, Vivaldi).  At --seed 2007 a workload is
   exactly its mirrored CLI command; at seed N it is that command with
   [--seed N --matrix M], M being [tivlab gen --seed 2007]'s space. *)
let world_seed = 2007

(* The world's delay matrix at [nodes] nodes, and how long it took. *)
let generate_world ~nodes =
  timed (fun () -> (Datasets.generate ~size:nodes ~seed:world_seed Datasets.Ds2).Generator.matrix)

(* Engine configurations, as tivlab and tivd build them. *)

(* tivlab's measurement-plane flags with their defaults (uniform
   profile, no jitter, no retries, fixed policy, 20% churn); every model
   draws its seed from the one engine seed. *)
let engine_config ?(loss = 0.) ?(churn = false) ?dynamics ?cache ~seed () =
  {
    Engine.fault = { Fault.default with Fault.loss };
    profile = None;
    churn = (if churn then Some { Churn.default with Churn.fraction = 0.2; seed } else None);
    dynamics =
      (match dynamics with
      | None -> None
      | Some `Diurnal ->
        Some { Dynamics.default with Dynamics.diurnal = Some Dynamics.default_diurnal; seed }
      | Some `Routeflap ->
        Some { Dynamics.default with Dynamics.route_flap = Some Dynamics.default_route_flap; seed });
    budget = None;
    cache_ttl = Option.map fst cache;
    cache_capacity = Option.map snd cache;
    charge_time = false;
    seed;
  }

(* An engine over [backend] with the backend's instruments on the
   engine's registry, as tivlab's make_backend_engine does. *)
let engine ~config backend =
  let e = Backend.engine ~config backend in
  Backend.attach_obs backend (Engine.obs e);
  e

(* ---------------------------------------------------------------- *)
(* Traced runs                                                       *)

(* What a traced run captures for the replays: the first [pair_cap]
   backend pairs and, during the first batch, the engine clock schedule
   (every distinct clock reading seen at a backend query). *)
type capture = {
  pairs : int array;  (* i0; j0; i1; j1; ... *)
  mutable npairs : int;
  mutable schedule : float array;
  mutable nsched : int;
  mutable clock : unit -> float;
  mutable recording : bool;
}

let pair_cap = 100_000

let new_capture () =
  {
    pairs = Array.make (2 * pair_cap) 0;
    npairs = 0;
    schedule = Array.make 1024 0.;
    nsched = 0;
    clock = (fun () -> nan);
    recording = true;
  }

let push_time c t =
  if c.nsched = 0 || c.schedule.(c.nsched - 1) <> t then begin
    if c.nsched = Array.length c.schedule then begin
      let bigger = Array.make (2 * c.nsched) 0. in
      Array.blit c.schedule 0 bigger 0 c.nsched;
      c.schedule <- bigger
    end;
    c.schedule.(c.nsched) <- t;
    c.nsched <- c.nsched + 1
  end

let capture_query c i j =
  if c.recording then begin
    if c.npairs < pair_cap then begin
      c.pairs.(2 * c.npairs) <- i;
      c.pairs.((2 * c.npairs) + 1) <- j;
      c.npairs <- c.npairs + 1
    end;
    let t = c.clock () in
    if not (Float.is_nan t) then push_time c t
  end

type tracer = { span : Span.t; capture : capture }

let new_tracer () = { span = Span.create (); capture = new_capture () }

(* [backend] behind an [of_fn] wrapper that times every query as a
   "backend.query" leaf span.  Each query is its own op unless the
   workload numbers ops itself ([count_ops = false]). *)
let traced_backend ?(count_ops = true) span capture backend =
  let fd = Span.fold span "backend.query" in
  Backend.of_fn ~size:(Backend.size backend) (fun i j ->
      let t0 = Span.now_ns () in
      let d = Backend.query backend i j in
      Span.leaf span fd "backend.query" t0 (Span.now_ns ());
      if count_ops then span.Span.op <- span.Span.op + 1;
      Option.iter (fun c -> capture_query c i j) capture;
      d)

let traced_predictor span predict =
  let fd = Span.fold span "vivaldi.predict" in
  fun i j ->
    let t0 = Span.now_ns () in
    let p = predict i j in
    Span.leaf span fd "vivaldi.predict" t0 (Span.now_ns ());
    p

(* Replays on a twin engine with the workload's config: the probe path
   over the captured pairs, and the clock over the captured schedule
   (churn and dynamics bookkeeping).  Both in ns: per probe, and per op
   of the batch the schedule came from. *)
let replay_probe_ns ~config backend c =
  let twin = Backend.engine ~config backend in
  let t0 = Span.now_ns () in
  for k = 0 to c.npairs - 1 do
    ignore (Engine.probe_timed twin c.pairs.(2 * k) c.pairs.((2 * k) + 1))
  done;
  Metric.ratio (Span.now_ns () -. t0) (float_of_int c.npairs)

let replay_advance_ns ~config backend c ~ops =
  let twin = Backend.engine ~config backend in
  let t0 = Span.now_ns () in
  for k = 0 to c.nsched - 1 do
    Engine.advance_to twin c.schedule.(k)
  done;
  Metric.ratio (Span.now_ns () -. t0) (float_of_int ops)

(* ---------------------------------------------------------------- *)
(* Engine-derived counts                                             *)

(* Registry series by key: the engine mirrors its probe accounting
   there, and the service workload only has the merged registry.  Some
   histograms keep their bucket edges private, so look them up by key
   rather than re-register them. *)
let series obs key = List.assoc_opt key (Obs.Registry.metrics obs)

let counter obs key =
  match series obs key with Some (Obs.Registry.Counter c) -> Obs.Counter.value c | _ -> 0.

let histogram obs key =
  match series obs key with
  | Some (Obs.Registry.Histogram h) -> h
  | _ -> invalid_arg ("no histogram " ^ key)

(* The wire probes issued per op (the probe cost users pay) and the
   measurement plane's per-op counts. *)
let measure_counts obs ~ops ~churn =
  let c = counter obs and ops = float_of_int ops in
  let requests = c "measure.requests" and issued = c "measure.probes.sent" in
  [
    ("probes_per_op", Metric.ratio issued ops);
    ("measure.requests_per_op", Metric.ratio requests ops);
    ("measure.cache_hit_frac", Metric.ratio (c "measure.cache.hits") requests);
    ("measure.cache_stale_frac", Metric.ratio (c "measure.cache.stale") requests);
    ("measure.evictions_per_op", Metric.ratio (c "measure.cache.evicted") ops);
    ("measure.lost_frac", Metric.ratio (c "measure.probes.lost") issued);
    ("measure.down_frac", Metric.ratio (c "measure.probes.down") requests);
    ("measure.churn_transitions_per_op", Metric.ratio (float_of_int churn) ops);
  ]

let churn_transitions engine =
  match Engine.churn engine with Some c -> Churn.transitions c | None -> 0

(* The world of store-churn and stream-dense: the dense space plus the
   policy's Vivaldi predictor.  The embedding runs on its own engine
   seeded seed+1, so the scenario engine's fault and churn streams do
   not depend on it: System.create_with_engine and 200 rounds, what
   Selectors.embed_vivaldi_engine does. *)
type embedded = { backend : Backend.t; predictor : int -> int -> float }

let embedded_world ~seed ~nodes ~config =
  let matrix, generate_s = generate_world ~nodes in
  let backend = Backend.dense matrix in
  let maintenance = engine ~config:(config ~seed:(seed + 1)) backend in
  let t0 = Span.now_ns () in
  let sys = System.create_with_engine (Rng.create (seed + 1)) maintenance in
  let round_ms = List.init 200 (fun _ -> 1000. *. snd (timed (fun () -> System.round sys))) in
  ( { backend; predictor = System.predictor sys },
    [
      ("topology.generate_s", generate_s);
      ("vivaldi.embed_s", seconds_since t0);
      ("vivaldi.round_ms_p50", median round_ms);
    ] )

(* ---------------------------------------------------------------- *)
(* The workload interface                                            *)

type ctx = {
  seed : int;
  quick : bool;  (** tiny sizes: the tier-1 smoke run *)
  tracer : tracer option;
}

(* One measured batch's results, read after the timed part. *)
type outcome = {
  ops : int;
  values : (string * float) list;
      (** Det values must repeat exactly in every batch; Wall values
          are reported as the median over batches *)
  checks : (string * bool) list;  (** accounting identities *)
}

type prepared = {
  create_s : float option;  (** untimed scenario construction *)
  run : unit -> unit;  (** the measured part *)
  finish : unit -> outcome;
}

module type WORKLOAD = sig
  type world

  val name : string

  val domains : int
  (** worker domains the measured part keeps busy *)

  val setup : ctx -> world * (string * float) list
  (** The world every batch runs in, plus component timings. *)

  val prepare : ctx -> world -> prepared
  (** A fresh engine and scenario over the world, so every batch
      replays the same deterministic work. *)

  val replay : ctx -> world -> Engine.config * Backend.t
  (** The scenario engine's config and backend, for the replays. *)

  val extras : ctx -> world -> batch_s:float -> (string * float) list
  (** Trace-only measurements taken after the batches; [batch_s] is
      the median measured batch wall time. *)
end
