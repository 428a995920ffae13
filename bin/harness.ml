(* The command-line harness shared by tivlab and tivd: usage errors,
   world construction, the measurement-plane engine config, the flags
   both executables define alike, and the report step.  Every world
   either CLI runs on, and every engine config, is built here. *)

open Cmdliner
module Io = Tivaware_delay_space.Io
module Clustering = Tivaware_delay_space.Clustering
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Synthesizer = Tivaware_topology.Synthesizer
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Budget = Tivaware_measure.Budget
module Probe_stats = Tivaware_measure.Probe_stats
module Obs = Tivaware_obs

(* ---------------------------------------------------------------- *)
(* Usage errors                                                      *)

let usage_error ~prog msg =
  prerr_endline (prog ^ ": " ^ msg);
  exit 2

(* Bad caller input raises [Invalid_argument] naming the field; report
   it as a usage error instead of an uncaught exception. *)
let or_usage_error ~prog f =
  try f () with Invalid_argument msg -> usage_error ~prog msg

(* Flag checks for [or_usage_error]: each names the flag it rejects. *)
let at_least flag lo v =
  if v < lo then invalid_arg (Printf.sprintf "--%s must be >= %d (got %d)" flag lo v)

let in_unit flag v =
  if Float.is_nan v || v < 0. || v > 1. then
    invalid_arg (Printf.sprintf "--%s must be in [0, 1] (got %g)" flag v)

(* A malformed matrix file is a usage error naming the file. *)
let load_matrix ~prog path =
  try Io.load path
  with Failure msg -> usage_error ~prog (Printf.sprintf "%s: %s" path msg)

(* ---------------------------------------------------------------- *)
(* Worlds                                                            *)

let generate ~prog ?(preset = Datasets.Ds2) ~size ~seed () =
  or_usage_error ~prog (fun () -> Datasets.generate ~size ~seed preset)

(* Returns the matrix plus lazy cluster labels ([-1] = noise) for
   topology-derived fault profiles: ground truth when generating,
   DS2-style clustering when loading a measured matrix. *)
let load_or_generate ~prog matrix_file ~size ~seed =
  match matrix_file with
  | Some path ->
    let m = load_matrix ~prog path in
    (m, lazy (Clustering.cluster m).Clustering.label)
  | None ->
    let data = generate ~prog ~size ~seed () in
    (data.Generator.matrix, lazy data.Generator.cluster_of)

(* The DS2 model of a measured matrix file. *)
let load_model ~prog path = Synthesizer.analyze (load_matrix ~prog path)

type world = {
  matrix_file : string option;
  nodes : int;
  seed : int;
  kind : [ `Dense | `Lazy ];
  model_size : int;
  memo : int;
}

(* The delay space is loaded or generated once; each call of the
   returned factory wraps it in a fresh backend value (its own obs
   attach point), so tivd's shards share one dense matrix or one lazy
   model.  Dense: the usual load-or-generate matrix at [nodes].  Lazy: a
   DS2 model measured from a small dense source (--matrix or a
   --model-size generated space), then a lazy space of [nodes] over
   it.  The labels feed topology-derived fault profiles. *)
let backend_factory ~prog w =
  match w.kind with
  | `Dense ->
    let m, labels = load_or_generate ~prog w.matrix_file ~size:w.nodes ~seed:w.seed in
    fun () -> (Backend.dense m, labels)
  | `Lazy ->
    let source, _ =
      load_or_generate ~prog w.matrix_file ~size:w.model_size ~seed:w.seed
    in
    let model = Synthesizer.analyze source in
    let memo = if w.memo <= 0 then None else Some w.memo in
    fun () ->
      let backend = Backend.lazy_synth ?memo ~seed:w.seed ~size:w.nodes model in
      (backend, lazy (Option.get (Backend.labels backend)))

(* ---------------------------------------------------------------- *)
(* Measurement plane                                                 *)

type meas = {
  loss : float;
  jitter : float;
  probe_budget : int;
  cache_ttl : float;
  cache_capacity : int;
  retry_policy : [ `Fixed | `Backoff | `Adaptive ];
  retries : int;
  charge_time : bool;
  profile : [ `Uniform | `Topo | `Random ];
  churn : bool;
  churn_fraction : float;
  dynamics : [ `None | `Diurnal | `Routeflap ];
  metrics_out : string option;
}

(* The oracle model: no faults, cache, budget, churn or dynamics. *)
let default_meas =
  {
    loss = 0.;
    jitter = 0.;
    probe_budget = 0;
    cache_ttl = 0.;
    cache_capacity = 0;
    retry_policy = `Fixed;
    retries = 0;
    charge_time = false;
    profile = `Uniform;
    churn = false;
    churn_fraction = 0.2;
    dynamics = `None;
    metrics_out = None;
  }

let cli_backoff = { Fault.default_backoff with Fault.delay_jitter = 0.1 }

let engine_config ?(labels = lazy [||]) opts ~seed =
  let policy =
    match opts.retry_policy with
    | `Fixed -> Fault.Fixed
    | `Backoff -> Fault.Backoff cli_backoff
    | `Adaptive -> Fault.adaptive ~backoff:cli_backoff ()
  in
  let profile =
    match opts.profile with
    | `Uniform -> None (* fault config drives the injector, as before *)
    | `Topo ->
      Some
        (Profile.topology ~loss:opts.loss ~jitter:opts.jitter
           ~cluster_of:(Lazy.force labels) ())
    | `Random ->
      Some (Profile.random ~loss:opts.loss ~jitter:opts.jitter ~seed ())
  in
  let churn =
    if opts.churn then
      Some { Churn.default with Churn.fraction = opts.churn_fraction; seed }
    else None
  in
  let dynamics =
    match opts.dynamics with
    | `None -> None
    | `Diurnal ->
      Some
        { Dynamics.default with Dynamics.diurnal = Some Dynamics.default_diurnal; seed }
    | `Routeflap ->
      Some
        {
          Dynamics.default with
          Dynamics.route_flap = Some Dynamics.default_route_flap;
          seed;
        }
  in
  {
    Engine.fault =
      {
        Fault.default with
        Fault.loss = opts.loss;
        jitter = opts.jitter;
        retries = opts.retries;
        policy;
      };
    profile;
    churn;
    dynamics;
    budget =
      (if opts.probe_budget <= 0 then None
       else
         Some
           (Budget.per_node
              ~capacity:(float_of_int opts.probe_budget)
              ~rate:(float_of_int opts.probe_budget)));
    cache_ttl = (if opts.cache_ttl <= 0. then None else Some opts.cache_ttl);
    cache_capacity =
      (if opts.cache_capacity <= 0 then None else Some opts.cache_capacity);
    charge_time = opts.charge_time;
    seed;
  }

(* The profile constructors check their bases, so the config is built
   where a bad flag is a usage error. *)
let matrix_engine ~prog m ?labels opts ~seed =
  or_usage_error ~prog (fun () ->
      Engine.of_matrix ~config:(engine_config ?labels opts ~seed) m)

(* A backend world and the engine that measures it; the engine's
   registry also carries the backend's instruments. *)
let build ~prog w opts =
  let backend, labels =
    or_usage_error ~prog (fun () -> backend_factory ~prog w ())
  in
  let engine =
    or_usage_error ~prog (fun () ->
        let config = engine_config ~labels opts ~seed:w.seed in
        let engine = Backend.engine ~config backend in
        Backend.attach_obs backend (Engine.obs engine);
        engine)
  in
  (backend, labels, engine)

(* ---------------------------------------------------------------- *)
(* Flags both executables define alike                               *)

let seed_arg =
  Arg.(value & opt int 2007 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let backend_kind_arg =
  let kinds = [ ("dense", `Dense); ("lazy", `Lazy) ] in
  Arg.(
    value & opt (enum kinds) `Dense
    & info [ "backend" ] ~docv:"KIND"
        ~doc:"Delay-plane backend: $(b,dense) materializes the full \
              matrix (the historical model); $(b,lazy) synthesizes each \
              queried pair on demand from a DS2 model, so memory stays \
              independent of the pair count.")

let model_size_arg =
  Arg.(
    value & opt int 400
    & info [ "model-size" ] ~docv:"N"
        ~doc:"Size of the dense source space the lazy backend's DS2 model \
              is measured from (with $(b,--backend lazy) and no \
              $(b,--matrix)).")

let memo_arg =
  Arg.(
    value & opt int 0
    & info [ "memo" ] ~docv:"N"
        ~doc:"Bound the lazy backend's LRU memo of materialized pairs to N \
              entries (0 = no memo; every query re-derives its pair, \
              still deterministic).")

(* The world flags; each CLI names its own matrix and node-count flags. *)
let world_term ~matrix ~nodes =
  let make matrix_file nodes seed kind model_size memo =
    { matrix_file; nodes; seed; kind; model_size; memo }
  in
  Term.(
    const make $ matrix $ nodes $ seed_arg $ backend_kind_arg $ model_size_arg
    $ memo_arg)

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Probe loss probability injected by the measurement plane.")

let jitter_arg =
  Arg.(
    value & opt float 0.
    & info [ "jitter" ] ~docv:"F"
        ~doc:"Multiplicative probe jitter: measured RTT is scaled by a \
              uniform factor in [1-F, 1+F].")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Maximum retransmissions per probe request.")

let cache_ttl_arg =
  Arg.(
    value & opt float 0.
    & info [ "cache-ttl" ] ~docv:"SECONDS"
        ~doc:"RTT cache TTL in logical seconds — the IDMS-style delay \
              service mode (0 = on-demand, no cache).")

let cache_capacity_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"LRU entry bound for the RTT cache (0 = unbounded; \
              requires $(b,--cache-ttl)).")

let charge_time_arg =
  Arg.(
    value & flag
    & info [ "charge-time" ]
        ~doc:"Advance the measurement-plane clock by what each probe \
              costs (RTTs, timeouts, backoff), instead of one logical \
              second per round only.")

(* The measurement-plane flags both CLIs take, over [default_meas]. *)
let meas_term =
  let make loss jitter retries cache_ttl cache_capacity charge_time =
    { default_meas with loss; jitter; retries; cache_ttl; cache_capacity; charge_time }
  in
  Term.(
    const make $ loss_arg $ jitter_arg $ retries_arg $ cache_ttl_arg
    $ cache_capacity_arg $ charge_time_arg)

(* ---------------------------------------------------------------- *)
(* Report                                                            *)

(* Resident set size from the kernel's accounting, for the flat-RSS
   claim backend runs print. *)
let rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmRSS: %d kB" (fun kb -> float_of_int kb /. 1024.))
    |> Option.value ~default:nan

(* A statistic of an empty sample is undefined: [nan], printed "-". *)
let number decimals v =
  if Float.is_nan v then "-" else Printf.sprintf "%.*f" decimals v

(* Dump a metric registry as JSON to the summary file, if any. *)
let write_summary ?(announce = Printf.sprintf "metrics: wrote %s") ~clock obs =
  function
  | None -> ()
  | Some path ->
    Obs.Summary.write ~clock obs path;
    print_endline (announce path)

(* One report step: the probe summary line, the memory line of a
   backend run, the run's gauges in the engine registry, and the
   summary file of --metrics-out. *)
let report ?(probes = true) ?backend ?(gauges = []) opts engine =
  let obs = Engine.obs engine in
  let set name v = Obs.Gauge.set (Obs.Registry.gauge obs name) v in
  if probes then Format.printf "probes: %a@." Probe_stats.pp (Engine.stats engine);
  Option.iter
    (fun backend ->
      let rss = rss_mb () in
      if not (Float.is_nan rss) then
        Printf.printf
          "memory: rss=%.1f MB, materialized pairs=%d (%s backend, %d nodes)\n" rss
          (Backend.materialized backend)
          (Backend.kind_name backend) (Backend.size backend);
      set "backend.rss_mb" (if Float.is_nan rss then 0. else rss))
    backend;
  (* An undefined statistic is left out rather than exported as a
     number. *)
  List.iter (fun (name, v) -> if not (Float.is_nan v) then set name v) gauges;
  write_summary ~clock:(Engine.now engine) obs opts.metrics_out
