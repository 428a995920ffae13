(* tivlab — command-line laboratory for TIV-aware neighbor selection.

   Subcommands:
     gen          generate a synthetic delay space and save it
     survey       TIV analysis of a delay matrix (Section 2 workflow)
     import       convert a full square delay matrix to the native format
     repair       clean a measured delay matrix
     synthesize   scale a measured matrix to any size (DS2-style)
     vivaldi      Vivaldi embedding + neighbor-selection experiment
     meridian     Meridian neighbor-selection experiment
     alert        evaluate the TIV alert mechanism on a matrix
     dht          Chord-like DHT lookups with PNS
     multicast    build and score an overlay multicast tree
     embed        Vivaldi embedding over a delay backend (dense or lazy)
     closest      Meridian closest-node queries over a delay backend
     tiv-scan     sampled TIV alert evaluation over a delay backend
     store        object-store reads over a consistent-hashing ring
     stream       P2P live streaming swarm with pluggable neighbor selection
     metrics-diff per-series comparison of two --metrics-out summaries *)

open Cmdliner
module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Io = Tivaware_delay_space.Io
module Clustering = Tivaware_delay_space.Clustering
module Properties = Tivaware_delay_space.Properties
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Severity = Tivaware_tiv.Severity
module Triangle = Tivaware_tiv.Triangle
module Alert = Tivaware_tiv.Alert
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Error = Tivaware_embedding.Error
module Ring = Tivaware_meridian.Ring
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Penalty = Tivaware_core.Penalty
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Budget = Tivaware_measure.Budget
module Arbiter = Tivaware_measure.Arbiter
module Probe_stats = Tivaware_measure.Probe_stats
module Sim = Tivaware_eventsim.Sim
module Zipf = Tivaware_util.Zipf
module Obs = Tivaware_obs
module Backend = Tivaware_backend.Delay_backend
module Synthesizer = Tivaware_topology.Synthesizer
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Multicast = Tivaware_overlay.Multicast
module Store_ring = Tivaware_store.Ring
module Store_scenario = Tivaware_store.Scenario
module Selection = Tivaware_tiv.Selection
module Stream_swarm = Tivaware_stream.Swarm

(* ---------------------------------------------------------------- *)
(* Shared arguments                                                  *)

let seed_arg =
  Arg.(value & opt int 2007 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let size_arg =
  Arg.(
    value & opt int 400
    & info [ "size"; "n"; "nodes" ] ~docv:"N"
        ~doc:"Node count.  With $(b,--backend lazy) this can exceed \
              dense-matrix scale (e.g. 100000).")

(* An enum converter that also hands back the flag value, so reports
   print the name the user typed. *)
let named_enum choices = Arg.enum (List.map (fun (n, v) -> (n, (n, v))) choices)

let matrix_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "matrix"; "m" ] ~docv:"FILE"
        ~doc:"Delay matrix file (tivaware text format). When absent, a \
              DS2-like space is generated from $(b,--size)/$(b,--seed).")

let preset_arg =
  let presets =
    [ ("ds2", Datasets.Ds2); ("meridian", Datasets.Meridian);
      ("p2psim", Datasets.P2psim); ("planetlab", Datasets.Planetlab) ]
  in
  Arg.(
    value
    & opt (enum presets) Datasets.Ds2
    & info [ "preset" ] ~docv:"PRESET"
        ~doc:"Data-set preset: $(b,ds2), $(b,meridian), $(b,p2psim) or \
              $(b,planetlab).")

(* Bad caller input raises [Invalid_argument] naming the field; report
   it as a usage error instead of an uncaught exception. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    prerr_endline ("tivlab: " ^ msg);
    exit 2

(* A malformed matrix file is a usage error naming the file. *)
let load_matrix path =
  try Io.load path
  with Failure msg ->
    prerr_endline (Printf.sprintf "tivlab: %s: %s" path msg);
    exit 2

(* Returns the matrix plus lazy cluster labels ([-1] = noise) for
   topology-derived fault profiles: ground truth when generating,
   DS2-style clustering when loading a measured matrix. *)
let load_or_generate matrix_file size seed =
  or_usage_error @@ fun () ->
  match matrix_file with
  | Some path ->
    let m = load_matrix path in
    (m, lazy (Clustering.cluster m).Clustering.label)
  | None ->
    let data = Datasets.generate ~size ~seed Datasets.Ds2 in
    (data.Generator.matrix, lazy data.Generator.cluster_of)

(* ---------------------------------------------------------------- *)
(* Measurement-plane arguments (vivaldi / meridian / alert)          *)

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Probe loss probability injected by the measurement plane.")

let meas_jitter_arg =
  Arg.(
    value & opt float 0.
    & info [ "jitter" ] ~docv:"F"
        ~doc:"Multiplicative probe jitter: measured RTT is scaled by a \
              uniform factor in [1-F, 1+F].")

let probe_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "probe-budget" ] ~docv:"N"
        ~doc:"Per-node probe budget: token bucket of capacity N refilled \
              at N tokens per logical second (0 = unlimited).")

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

let retry_policy_arg =
  let policies =
    [ ("fixed", `Fixed); ("backoff", `Backoff); ("adaptive", `Adaptive) ]
  in
  Arg.(
    value & opt (enum policies) `Fixed
    & info [ "retry-policy" ] ~docv:"POLICY"
        ~doc:"Retransmission policy for lost probes: $(b,fixed) \
              (immediate, up to $(b,--retries)), $(b,backoff) \
              (exponential, 100 ms base, factor 2, 10% delay jitter) or \
              $(b,adaptive) (backoff with the retry budget sized per \
              node from its estimated loss rate).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Maximum retransmissions per probe request.")

let charge_time_arg =
  Arg.(
    value & flag
    & info [ "charge-time" ]
        ~doc:"Advance the measurement-plane clock by what each probe \
              costs (RTTs, timeouts, backoff), instead of one logical \
              second per round only.")

let profile_arg =
  let profiles = [ ("uniform", `Uniform); ("topo", `Topo); ("random", `Random) ] in
  Arg.(
    value & opt (enum profiles) `Uniform
    & info [ "profile" ] ~docv:"KIND"
        ~doc:"Per-link fault profile built from $(b,--loss)/$(b,--jitter): \
              $(b,uniform) (every link identical — the global model), \
              $(b,topo) (access links of noise hosts lossy, inter-cluster \
              paths jittery, from cluster labels) or $(b,random) (seeded \
              per-link heterogeneity, mean equal to the base rates).")

let churn_arg =
  Arg.(
    value & flag
    & info [ "churn" ]
        ~doc:"Enable seeded node churn: a fraction of nodes alternates \
              exponential up/down lifetimes on the engine clock; down \
              nodes answer no probes.")

let churn_fraction_arg =
  Arg.(
    value & opt float 0.2
    & info [ "churn-fraction" ] ~docv:"F"
        ~doc:"Share of nodes subject to churn (with $(b,--churn)).")

let dynamics_arg =
  let kinds =
    [ ("none", `None); ("diurnal", `Diurnal); ("routeflap", `Routeflap) ]
  in
  Arg.(
    value & opt (enum kinds) `None
    & info [ "dynamics" ] ~docv:"KIND"
        ~doc:"Time-varying network conditions on the engine clock: \
              $(b,diurnal) (loss/jitter follow a 240 s sinusoidal cycle, \
              amplitude 0.8) or $(b,routeflap) (seeded per-link route \
              changes, mean one per 100 s, re-drawing up to 50 ms of \
              extra delay).  $(b,none) keeps the profile static.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the run's observability summary (probe, cache, repair \
              and alert metrics plus the trace ring) to FILE as JSON.")

type meas_opts = {
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

let meas_term =
  let make loss jitter probe_budget cache_ttl cache_capacity retry_policy
      retries charge_time profile churn churn_fraction dynamics metrics_out =
    {
      loss;
      jitter;
      probe_budget;
      cache_ttl;
      cache_capacity;
      retry_policy;
      retries;
      charge_time;
      profile;
      churn;
      churn_fraction;
      dynamics;
      metrics_out;
    }
  in
  Term.(
    const make $ loss_arg $ meas_jitter_arg $ probe_budget_arg $ cache_ttl_arg
    $ cache_capacity_arg $ retry_policy_arg $ retries_arg $ charge_time_arg
    $ profile_arg $ churn_arg $ churn_fraction_arg $ dynamics_arg
    $ metrics_out_arg)

let cli_backoff = { Fault.default_backoff with Fault.delay_jitter = 0.1 }

let make_engine_config ?(labels = lazy [||]) opts ~seed =
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
  let config =
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
  in
  config

let make_engine m ?labels opts ~seed =
  let config = make_engine_config ?labels opts ~seed in
  or_usage_error (fun () -> Engine.of_matrix ~config m)

let make_backend_engine backend ?labels opts ~seed =
  let config = make_engine_config ?labels opts ~seed in
  or_usage_error (fun () ->
      let engine = Backend.engine ~config backend in
      Backend.attach_obs backend (Engine.obs engine);
      engine)

let print_probe_summary engine =
  Format.printf "probes: %a@." Probe_stats.pp (Engine.stats engine)

(* Dump the engine's metric registry — probe/cache/repair/alert series
   plus whatever driver-level gauges the subcommand added — as JSON. *)
let write_metrics meas engine =
  match meas.metrics_out with
  | None -> ()
  | Some path ->
    Obs.Summary.write ~clock:(Engine.now engine) (Engine.obs engine) path;
    Printf.printf "metrics: wrote %s\n" path

let set_gauge engine name v =
  Obs.Gauge.set (Obs.Registry.gauge (Engine.obs engine) name) v

(* ---------------------------------------------------------------- *)
(* Delay-backend arguments (embed / closest / tiv-scan)              *)

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

(* Build the ground-truth backend for a backend subcommand.  Dense: the
   usual load-or-generate matrix at the requested node count.  Lazy: a
   DS2 model measured from a small dense source (--matrix or a
   --model-size generated space), then a lazy space of --nodes over
   it. *)
let make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed =
  let memo = if memo <= 0 then None else Some memo in
  or_usage_error @@ fun () ->
  match kind with
  | `Dense ->
    let m, labels = load_or_generate matrix_file nodes seed in
    (Backend.dense m, labels)
  | `Lazy ->
    let source, _ = load_or_generate matrix_file model_size seed in
    let model = Synthesizer.analyze source in
    let backend = Backend.lazy_synth ?memo ~seed ~size:nodes model in
    let labels = lazy (Option.get (Backend.labels backend)) in
    (backend, labels)

(* Resident set size from the kernel's accounting, for the flat-RSS
   claim backend runs print. *)
let rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
          try
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          with Scanf.Scan_failure _ | Failure _ -> nan
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let print_backend_summary backend engine =
  let rss = rss_mb () in
  if not (Float.is_nan rss) then
    Printf.printf "memory: rss=%.1f MB, materialized pairs=%d (%s backend, %d nodes)\n"
      rss
      (Backend.materialized backend)
      (Backend.kind_name backend) (Backend.size backend);
  set_gauge engine "backend.rss_mb" (if Float.is_nan rss then 0. else rss)

(* ---------------------------------------------------------------- *)
(* gen                                                               *)

let gen_cmd =
  let run preset size seed output =
    let data = or_usage_error (fun () -> Datasets.generate ~size ~seed preset) in
    Io.save data.Generator.matrix output;
    Printf.printf "wrote %s (%s, %d nodes, %d edges)\n" output
      (Datasets.name ~size preset) size
      (Matrix.edge_count data.Generator.matrix)
  in
  let output =
    Arg.(
      value & opt string "delay-matrix.dm"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic Internet delay space.")
    Term.(const run $ preset_arg $ size_arg $ seed_arg $ output)

(* ---------------------------------------------------------------- *)
(* survey                                                            *)

let survey_cmd =
  let run matrix_file size seed =
    let m, _ = load_or_generate matrix_file size seed in
    Format.printf "%a@." Properties.pp (Properties.analyze m);
    let census = Triangle.census m in
    Printf.printf "triangles: %d/%d violate (%.1f%%), worst ratio %.2f\n"
      census.Triangle.violating census.Triangle.triangles
      (100. *. census.Triangle.fraction) census.Triangle.worst_ratio;
    let severity = Severity.all m in
    Format.printf "severity: %a@." Stats.pp_summary
      (Stats.summarize (Matrix.delays severity));
    Format.printf "clusters: %a@." Clustering.pp (Clustering.cluster m)
  in
  Cmd.v
    (Cmd.info "survey" ~doc:"TIV analysis of a delay space.")
    Term.(const run $ matrix_arg $ size_arg $ seed_arg)

(* ---------------------------------------------------------------- *)
(* vivaldi                                                           *)

let vivaldi_cmd =
  let run matrix_file size seed rounds dim dynamic candidates meas =
    let m, labels = load_or_generate matrix_file size seed in
    let config = { System.default_config with System.dim } in
    let rng = Rng.create seed in
    let engine = make_engine m ~labels meas ~seed in
    let system = Selectors.embed_vivaldi_engine ~config ~rounds rng engine in
    if dynamic > 0 then
      Dynamic_neighbors.run system
        { Dynamic_neighbors.rounds_per_iteration = rounds; iterations = dynamic };
    let err =
      Error.evaluate m ~predicted:(Selectors.vivaldi_predict system)
    in
    Format.printf "embedding error: %a@." Error.pp err;
    let result =
      or_usage_error (fun () ->
          Experiment.run_predictor rng m ~runs:5 ~candidate_count:candidates
            ~predict:(Selectors.vivaldi_predict system) ())
    in
    Printf.printf "neighbor selection: %s (failures %d)\n"
      (Penalty.summarize result.Experiment.penalties)
      result.Experiment.failures;
    if meas.charge_time then
      Printf.printf "virtual time: %.1f s (measurement-aware)\n"
        (Engine.now engine);
    print_probe_summary engine;
    set_gauge engine "vivaldi.embed_error.median_abs_ms" err.Error.median_abs;
    set_gauge engine "vivaldi.embed_error.p90_abs_ms" err.Error.p90_abs;
    set_gauge engine "vivaldi.embed_error.median_rel" err.Error.median_rel;
    set_gauge engine "vivaldi.embed_error.p90_rel" err.Error.p90_rel;
    set_gauge engine "vivaldi.selection_failures"
      (float_of_int result.Experiment.failures);
    write_metrics meas engine
  in
  let rounds =
    Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"N" ~doc:"Embedding rounds.")
  in
  let dim =
    Arg.(value & opt int 5 & info [ "dim" ] ~docv:"D" ~doc:"Embedding dimension.")
  in
  let dynamic =
    Arg.(
      value & opt int 0
      & info [ "dynamic" ] ~docv:"ITERS"
          ~doc:"Dynamic-neighbor iterations (0 = plain Vivaldi).")
  in
  let candidates =
    Arg.(value & opt int 40 & info [ "candidates" ] ~docv:"N" ~doc:"Candidate pool size.")
  in
  Cmd.v
    (Cmd.info "vivaldi" ~doc:"Vivaldi embedding and neighbor selection.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ rounds $ dim $ dynamic
      $ candidates $ meas_term)

(* ---------------------------------------------------------------- *)
(* meridian                                                          *)

let meridian_cmd =
  let run matrix_file size seed count beta tiv_aware no_termination meas =
    let m, labels = load_or_generate matrix_file size seed in
    let cfg = { Ring.default_config with Ring.beta } in
    let rng = Rng.create seed in
    let engine = make_engine m ~labels meas ~seed in
    let termination =
      if no_termination then Some Tivaware_meridian.Query.Any_improvement else None
    in
    let result =
      or_usage_error @@ fun () ->
      if tiv_aware then begin
        let vivaldi = Selectors.embed_vivaldi (Rng.create (seed + 1)) m in
        let predicted i j = System.predicted vivaldi i j in
        Experiment.run_meridian rng m ~runs:5 ?termination ~engine
          ~meridian_count:count
          ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted)
          ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ())
          ()
      end
      else
        Experiment.run_meridian rng m ~runs:5 ?termination ~engine
          ~meridian_count:count ~build:(Selectors.meridian_build m cfg) ()
    in
    Printf.printf "neighbor selection: %s\n"
      (Penalty.summarize result.Experiment.base.Experiment.penalties);
    Printf.printf "probes=%d queries=%d hops/query=%.2f restarts=%d failures=%d\n"
      result.Experiment.probes result.Experiment.queries
      result.Experiment.hops_mean result.Experiment.restarts
      result.Experiment.base.Experiment.failures;
    print_probe_summary engine;
    set_gauge engine "meridian.queries"
      (float_of_int result.Experiment.queries);
    set_gauge engine "meridian.hops_mean" result.Experiment.hops_mean;
    set_gauge engine "meridian.restarts"
      (float_of_int result.Experiment.restarts);
    set_gauge engine "meridian.failures"
      (float_of_int result.Experiment.base.Experiment.failures);
    write_metrics meas engine
  in
  let count =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Meridian node count.")
  in
  let beta =
    Arg.(value & opt float 0.5 & info [ "beta" ] ~docv:"B" ~doc:"Acceptance threshold.")
  in
  let tiv_aware =
    Arg.(value & flag & info [ "tiv-aware" ] ~doc:"Enable the TIV alert mechanism.")
  in
  let no_termination =
    Arg.(value & flag & info [ "no-termination" ] ~doc:"Disable the termination rule.")
  in
  Cmd.v
    (Cmd.info "meridian" ~doc:"Meridian neighbor-selection experiment.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ count $ beta $ tiv_aware
      $ no_termination $ meas_term)

(* ---------------------------------------------------------------- *)
(* import                                                            *)

let import_cmd =
  let run input output symmetrize =
    let m = Io.load_square ~symmetrize input in
    Io.save m output;
    Printf.printf "imported %s: %d nodes, %d edges -> %s\n" input
      (Matrix.size m) (Matrix.edge_count m) output
  in
  let input =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"INPUT" ~doc:"Square-matrix text file (e.g. p2psim King data).")
  in
  let output =
    Arg.(value & opt string "imported.dm" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let symmetrize =
    let modes = [ ("min", `Min); ("max", `Max); ("mean", `Mean) ] in
    Arg.(
      value & opt (enum modes) `Mean
      & info [ "symmetrize" ] ~docv:"MODE"
          ~doc:"Asymmetry reconciliation: $(b,min), $(b,max) or $(b,mean).")
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Convert a full square delay matrix to the native format.")
    Term.(const run $ input $ output $ symmetrize)

(* ---------------------------------------------------------------- *)
(* repair                                                            *)

let repair_cmd =
  let run input output min_degree clamp fill =
    let module Repair = Tivaware_delay_space.Repair in
    let m = load_matrix input in
    Printf.printf "loaded %d nodes, %d missing entries\n" (Matrix.size m)
      (Repair.missing_count m);
    let m, mapping = Repair.drop_low_degree m ~min_degree in
    Printf.printf "after degree filter (>= %d): %d nodes kept\n" min_degree
      (Array.length mapping);
    let m =
      match clamp with
      | None -> m
      | Some p ->
        Printf.printf "clamping delays at the p%.1f percentile\n" p;
        Repair.clamp_outliers m ~percentile:p
    in
    let m =
      if fill then begin
        let filled = Repair.fill_missing_shortest_path m in
        Printf.printf "filled %d entries via shortest paths\n"
          (Repair.missing_count m - Repair.missing_count filled);
        filled
      end
      else m
    in
    Io.save m output;
    Printf.printf "wrote %s (%d nodes, %d missing)\n" output (Matrix.size m)
      (Repair.missing_count m)
  in
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"Input matrix.")
  in
  let output =
    Arg.(value & opt string "repaired.dm" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let min_degree =
    Arg.(value & opt int 1 & info [ "min-degree" ] ~docv:"N" ~doc:"Drop nodes with fewer measured edges.")
  in
  let clamp =
    Arg.(value & opt (some float) None & info [ "clamp" ] ~docv:"P" ~doc:"Cap delays at this percentile.")
  in
  let fill =
    Arg.(value & flag & info [ "fill" ] ~doc:"Fill missing entries with shortest-path estimates.")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Clean a measured delay matrix.")
    Term.(const run $ input $ output $ min_degree $ clamp $ fill)

(* ---------------------------------------------------------------- *)
(* alert                                                             *)

let alert_cmd =
  let run matrix_file size seed worst meas =
    let m, labels = load_or_generate matrix_file size seed in
    let severity = Severity.all m in
    let system = Selectors.embed_vivaldi (Rng.create seed) m in
    let engine = make_engine m ~labels meas ~seed in
    let points =
      Eval.evaluate_engine ~engine
        ~predicted:(fun i j -> System.predicted system i j)
        ~severity ~worst_fraction:worst ~thresholds:Eval.default_thresholds
    in
    Printf.printf "worst fraction: %.0f%%\n" (100. *. worst);
    Printf.printf "%10s %8s %10s %8s\n" "threshold" "alerts" "accuracy" "recall";
    List.iter
      (fun p ->
        Printf.printf "%10.1f %8d %10.3f %8.3f\n" p.Eval.threshold p.Eval.alerts
          p.Eval.accuracy p.Eval.recall)
      points;
    print_probe_summary engine;
    write_metrics meas engine
  in
  let worst =
    Arg.(
      value & opt float 0.1
      & info [ "worst" ] ~docv:"F" ~doc:"Worst-edge fraction used as ground truth.")
  in
  Cmd.v
    (Cmd.info "alert" ~doc:"Evaluate the TIV alert mechanism.")
    Term.(const run $ matrix_arg $ size_arg $ seed_arg $ worst $ meas_term)

(* ---------------------------------------------------------------- *)
(* synthesize                                                        *)

let synthesize_cmd =
  let run input output size seed jitter =
    let module Synthesizer = Tivaware_topology.Synthesizer in
    let source = load_matrix input in
    let model = Synthesizer.analyze source in
    Printf.printf "model: %d source nodes, cluster shares [%s], %.1f%% missing\n"
      (Synthesizer.source_size model)
      (String.concat "; "
         (Array.to_list
            (Array.map (Printf.sprintf "%.2f") (Synthesizer.cluster_fractions model))))
      (100. *. Synthesizer.missing_fraction model);
    let synth = Synthesizer.synthesize ~jitter (Rng.create seed) model ~size in
    Io.save synth output;
    Printf.printf "wrote %s (%d nodes, %d edges)\n" output size
      (Matrix.edge_count synth)
  in
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"Source matrix.")
  in
  let output =
    Arg.(value & opt string "synthesized.dm" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let size =
    Arg.(value & opt int 1000 & info [ "size"; "n" ] ~docv:"N" ~doc:"Synthetic node count.")
  in
  let jitter =
    Arg.(value & opt float 0.05 & info [ "jitter" ] ~docv:"F" ~doc:"Smoothing jitter fraction.")
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Scale a measured delay space to any size (DS2-style synthesis).")
    Term.(const run $ input $ output $ size $ seed_arg $ jitter)

(* ---------------------------------------------------------------- *)
(* Scenario helpers shared by dht --stabilize, store and stream      *)

(* Strict arbiter carve of the system-wide probe allowance: weight
   [share] of it is a hard admission bucket for the background plane
   [bg], the rest belongs to the foreground plane [fg].  The share is
   checked here, so stage the carve before building any world; the
   returned function builds the arbiter once the node count is known.
   A share of 0 or 1, or no --probe-budget, means no arbitration. *)
let arbiter_carve meas ~flag ~share ~bg ~fg =
  or_usage_error (fun () ->
      if Float.is_nan share || share < 0. || share > 1. then
        invalid_arg (Printf.sprintf "--%s must be in [0, 1] (got %g)" flag share));
  fun n ->
    if meas.probe_budget > 0 && share > 0. && share < 1. then begin
      let total = float_of_int (meas.probe_budget * n) in
      Some
        (Arbiter.create
           (Arbiter.config ~capacity:total ~rate:total
              ~shares:[ (bg, share); (fg, 1. -. share) ]))
    end
    else None

(* ---------------------------------------------------------------- *)
(* dht                                                               *)

(* Continuous-stabilization scenario (--stabilize MS): a Zipf key
   workload replayed over simulated time while the ring runs Chord's
   periodic stabilize/notify/fix-fingers protocol.  Both planes pay
   their probes through one engine — foreground lookups under the
   [dht] label, maintenance under [chord_stabilize] — and with
   --probe-budget plus --stabilize-share the maintenance plane is
   additionally admission-controlled by a strict arbiter carve.  The
   whole run is a deterministic function of (seed, interval, budget). *)
let run_dht_stabilize ~backend ~labels ~seed ~candidates ~lookups ~meas
    ~interval ~keys ~zipf_s ~duration ~replicas ~carve ~fingers_per_round =
  let module Chord = Tivaware_dht.Chord in
  let module Id_space = Tivaware_dht.Id_space in
  or_usage_error (fun () ->
      if keys < 1 then invalid_arg "--keys must be >= 1";
      if not (duration > 0.) then invalid_arg "--duration must be positive");
  let engine = make_backend_engine backend ~labels meas ~seed in
  let n = Backend.size backend in
  let overlay =
    Chord.build ~candidates ~predict:(Engine.rtt ~label:"dht" engine) n
  in
  (* Distinct key ids, deterministic in the seed. *)
  let krng = Rng.create (seed + 11) in
  let seen = Hashtbl.create (2 * keys) in
  let key_ids =
    Array.init keys (fun _ ->
        let rec draw () =
          let k = Rng.int krng Id_space.modulus in
          if Hashtbl.mem seen k then draw ()
          else begin
            Hashtbl.replace seen k ();
            k
          end
        in
        draw ())
  in
  let store = Chord.Store.create ~replicas overlay ~keys:key_ids in
  (* Only the stabilizer asks the arbiter for admission, so its carve
     is a hard ceiling on background spend while the engine-level
     budget still caps the aggregate. *)
  let arbiter = carve n in
  let config =
    { Chord.Stabilizer.default_config with Chord.Stabilizer.interval; fingers_per_round }
  in
  let stab =
    or_usage_error (fun () ->
        Chord.Stabilizer.create ~config ?arbiter ~store overlay engine)
  in
  let sim = Sim.create () in
  Chord.Stabilizer.schedule stab sim;
  let zipf = Zipf.create ~n:keys ~s:zipf_s in
  let wrong_counter =
    Obs.Registry.counter (Engine.obs engine) "chord.lookup_wrong_owner"
  in
  let ground_up node =
    match Engine.churn engine with None -> true | Some c -> Churn.is_up c node
  in
  (* Lookup hops are charged as probes on the dht plane. *)
  let probed = Backend.of_fn ~size:n (Engine.rtt ~label:"dht" engine) in
  let lrng = Rng.create (seed + 13) in
  let latencies = ref [] and hops = ref 0 in
  let issued = ref 0 and skipped = ref 0 in
  for i = 0 to lookups - 1 do
    let at = duration *. float_of_int (i + 1) /. float_of_int (lookups + 1) in
    Sim.schedule_at sim at (fun () ->
        let source = Rng.int lrng n in
        let key = key_ids.(Zipf.sample zipf lrng) in
        if not (ground_up source) then incr skipped
        else begin
          incr issued;
          let l = Chord.lookup overlay probed ~source ~key in
          latencies := l.Chord.latency :: !latencies;
          hops := !hops + l.Chord.hops;
          (* A lookup is correct when it terminates at a node that is
             actually up (ground truth, not belief) and holds the key. *)
          if
            not
              (ground_up l.Chord.owner
              && Chord.Store.holds store ~key ~node:l.Chord.owner)
          then Obs.Counter.incr wrong_counter
        end)
  done;
  Sim.run sim ~until:duration;
  let t = Chord.Stabilizer.totals stab in
  Printf.printf
    "stabilize: interval=%gs fingers/round=%d candidates=%d keys=%d zipf=%.2f \
     replicas=%d duration=%gs\n"
    interval fingers_per_round candidates keys zipf_s replicas duration;
  Printf.printf
    "stabilize: rounds=%d probes=%d rerouted=%d marked_dead=%d revived=%d denied=%d\n"
    t.Chord.Stabilizer.rounds t.Chord.Stabilizer.checked
    t.Chord.Stabilizer.rerouted t.Chord.Stabilizer.marked_dead
    t.Chord.Stabilizer.revived t.Chord.Stabilizer.denied;
  Printf.printf "keys: migrated=%d copies over %d rehomes\n"
    (Chord.Store.migrated store) (Chord.Store.rehomes store);
  let lat = Array.of_list !latencies in
  let median = if lat = [||] then 0. else Stats.median lat in
  let p90 = if lat = [||] then 0. else Stats.percentile lat 90. in
  let hops_mean =
    if !issued = 0 then 0. else float_of_int !hops /. float_of_int !issued
  in
  let wrong = Obs.Counter.count wrong_counter in
  let pct =
    if !issued = 0 then 0.
    else 100. *. float_of_int (!issued - wrong) /. float_of_int !issued
  in
  Printf.printf
    "%d lookups (%d skipped, source down): correct=%.1f%% wrong=%d hops \
     mean=%.2f latency median=%.1f p90=%.1f ms\n"
    !issued !skipped pct wrong hops_mean median p90;
  print_probe_summary engine;
  set_gauge engine "dht.lookups" (float_of_int !issued);
  set_gauge engine "dht.lookup_correct_pct" pct;
  set_gauge engine "dht.hops_mean" hops_mean;
  set_gauge engine "dht.latency_median_ms" median;
  set_gauge engine "dht.latency_p90_ms" p90;
  write_metrics meas engine

let dht_cmd =
  let run matrix_file nodes seed kind model_size memo lookups candidates
      pns stabilize_ms stab_keys zipf_s duration replicas stab_share
      fingers_per_round meas =
    let module Chord = Tivaware_dht.Chord in
    let module Id_space = Tivaware_dht.Id_space in
    let carve =
      arbiter_carve meas ~flag:"stabilize-share" ~share:stab_share
        ~bg:"chord_stabilize" ~fg:"dht"
    in
    or_usage_error (fun () ->
        if lookups < 1 then
          invalid_arg (Printf.sprintf "--lookups must be >= 1 (got %d)" lookups));
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    if stabilize_ms > 0. then
      (* The stabilization scenario always probes through the
         measurement plane (PNS = engine); --pns is ignored here. *)
      run_dht_stabilize ~backend ~labels ~seed ~candidates ~lookups ~meas
        ~interval:(stabilize_ms /. 1000.) ~keys:stab_keys ~zipf_s ~duration
        ~replicas ~carve ~fingers_per_round
    else
    let n = Backend.size backend in
    let rng = Rng.create seed in
    let engine = make_backend_engine backend ~labels meas ~seed in
    let vivaldi () =
      (* Coordinate embeddings need the materialized space. *)
      Selectors.embed_vivaldi (Rng.create (seed + 1)) (Backend.densify backend)
    in
    let predict =
      match pns with
      | `None -> None
      | `Oracle -> Some (Backend.query backend)
      | `Engine ->
        (* PNS probes pay the measurement plane (--loss, --retry-policy,
           --cache-capacity, ...). *)
        Some (Engine.rtt ~label:"dht" engine)
      | `Vivaldi -> Some (Selectors.vivaldi_predict (vivaldi ()))
      | `Tiv_aware ->
        let system = vivaldi () in
        Dynamic_neighbors.run system
          { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
        Some (Selectors.vivaldi_predict system)
    in
    let overlay = Chord.build ~candidates ?predict n in
    let latencies = ref [] and hops = ref 0 in
    for _ = 1 to lookups do
      let l =
        Chord.lookup overlay backend
          ~source:(Rng.int rng n)
          ~key:(Rng.int rng Id_space.modulus)
      in
      latencies := l.Chord.latency :: !latencies;
      hops := !hops + l.Chord.hops
    done;
    let lat = Array.of_list !latencies in
    Printf.printf
      "%d lookups: hops mean=%.2f, latency median=%.1f p90=%.1f mean=%.1f ms\n"
      lookups
      (float_of_int !hops /. float_of_int lookups)
      (Stats.median lat)
      (Stats.percentile lat 90.)
      (Stats.mean lat);
    (* Only engine PNS probes; the other sources leave nothing to report. *)
    if pns = `Engine then print_probe_summary engine;
    set_gauge engine "dht.lookups" (float_of_int lookups);
    set_gauge engine "dht.hops_mean" (float_of_int !hops /. float_of_int lookups);
    set_gauge engine "dht.latency_median_ms" (Stats.median lat);
    set_gauge engine "dht.latency_p90_ms" (Stats.percentile lat 90.);
    write_metrics meas engine
  in
  let lookups =
    Arg.(value & opt int 1000 & info [ "lookups" ] ~docv:"N" ~doc:"Lookup count.")
  in
  let candidates =
    Arg.(value & opt int 8 & info [ "candidates" ] ~docv:"N" ~doc:"PNS arc candidates.")
  in
  let pns =
    let sources =
      [ ("none", `None); ("oracle", `Oracle); ("engine", `Engine);
        ("vivaldi", `Vivaldi); ("tiv-aware", `Tiv_aware) ]
    in
    Arg.(
      value & opt (enum sources) `None
      & info [ "pns" ] ~docv:"SOURCE"
          ~doc:"Finger proximity source: $(b,none), $(b,oracle), \
                $(b,engine) (direct probes through the measurement \
                plane), $(b,vivaldi) or $(b,tiv-aware).")
  in
  let stabilize =
    Arg.(
      value & opt float 0.
      & info [ "stabilize" ] ~docv:"MS"
          ~doc:"Run the continuous-stabilization scenario: each node \
                stabilizes every $(docv) milliseconds of simulated time \
                while a Zipf key workload replays over $(b,--duration). \
                Implies engine PNS; 0 (default) disables.")
  in
  let stab_keys =
    Arg.(
      value & opt int 512
      & info [ "keys" ] ~docv:"N"
          ~doc:"Keyspace size for the stabilization scenario.")
  in
  let zipf_s =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of the key popularity distribution \
                (0 = uniform).")
  in
  let duration =
    Arg.(
      value & opt float 120.
      & info [ "duration" ] ~docv:"SEC"
          ~doc:"Simulated seconds the stabilization scenario runs for.")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"R"
          ~doc:"Replica copies per key beyond the primary.")
  in
  let stab_share =
    Arg.(
      value & opt float 0.25
      & info [ "stabilize-share" ] ~docv:"F"
          ~doc:"With $(b,--probe-budget), carve this weight fraction of \
                the system-wide probe allowance into a strict admission \
                bucket for the stabilization plane (in [0, 1]; 0 or 1 \
                disables arbitration).")
  in
  let fingers_per_round =
    Arg.(
      value & opt int 1
      & info [ "fingers-per-round" ] ~docv:"K"
          ~doc:"Finger-table slots each stabilization round refreshes.")
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Chord-like DHT lookups with proximity neighbor selection.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ lookups $ candidates $ pns
      $ stabilize $ stab_keys $ zipf_s $ duration $ replicas $ stab_share
      $ fingers_per_round $ meas_term)

(* ---------------------------------------------------------------- *)
(* multicast                                                         *)

let multicast_cmd =
  let run matrix_file nodes seed kind model_size memo max_degree refreshes
      tiv_aware measured meas =
    let module Multicast = Tivaware_overlay.Multicast in
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let rng = Rng.create seed in
    let join_order = Rng.permutation rng (Backend.size backend) in
    let config = { Multicast.default_config with Multicast.max_degree } in
    let engine = make_backend_engine backend ~labels meas ~seed in
    (* --measured: joins and refreshes probe candidate edges through the
       measurement plane instead of trusting coordinates. *)
    let predict =
      if measured then None
      else begin
        (* Coordinate embeddings need the materialized space. *)
        let system =
          Selectors.embed_vivaldi (Rng.create (seed + 1)) (Backend.densify backend)
        in
        if tiv_aware then
          Dynamic_neighbors.run system
            { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
        Some (Selectors.vivaldi_predict system)
      end
    in
    let t = Multicast.build ~config ?predict engine ~join_order in
    let switches = ref 0 in
    for _ = 1 to refreshes do
      switches := !switches + Multicast.refresh ?predict t rng engine
    done;
    let switches = !switches in
    (* Evaluation is nan-audited: unmeasurable edges land in
       multicast.evaluate_failures instead of silently vanishing from
       the percentiles. *)
    let metrics = Multicast.evaluate t engine in
    Printf.printf
      "members=%d  mean edge=%.1f ms  stretch p50=%.2f p90=%.2f  depth=%d \
       fanout=%d  (%d refresh switches)\n"
      metrics.Multicast.members metrics.Multicast.mean_edge_ms
      metrics.Multicast.median_stretch metrics.Multicast.p90_stretch
      metrics.Multicast.max_depth metrics.Multicast.max_fanout switches;
    (* Coordinate-driven trees issue no probes; only --measured reports them. *)
    if measured then print_probe_summary engine;
    set_gauge engine "multicast.members" (float_of_int metrics.Multicast.members);
    set_gauge engine "multicast.mean_edge_ms" metrics.Multicast.mean_edge_ms;
    set_gauge engine "multicast.stretch_p50" metrics.Multicast.median_stretch;
    set_gauge engine "multicast.stretch_p90" metrics.Multicast.p90_stretch;
    set_gauge engine "multicast.refresh_switches" (float_of_int switches);
    write_metrics meas engine
  in
  let max_degree =
    Arg.(value & opt int 6 & info [ "max-degree" ] ~docv:"N" ~doc:"Children cap.")
  in
  let refreshes =
    Arg.(value & opt int 0 & info [ "refresh" ] ~docv:"N" ~doc:"Parent refresh passes.")
  in
  let tiv_aware =
    Arg.(value & flag & info [ "tiv-aware" ] ~doc:"Use dynamic-neighbor Vivaldi.")
  in
  let measured =
    Arg.(
      value & flag
      & info [ "measured" ]
          ~doc:"Select parents by probing through the measurement plane \
                ($(b,--loss), $(b,--retry-policy), $(b,--cache-capacity), \
                ...) instead of Vivaldi coordinates.")
  in
  Cmd.v
    (Cmd.info "multicast" ~doc:"Build and score an overlay multicast tree.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ max_degree $ refreshes
      $ tiv_aware $ measured $ meas_term)

(* ---------------------------------------------------------------- *)
(* embed                                                             *)

let embed_cmd =
  let run matrix_file nodes seed kind model_size memo rounds dim sample
      meas =
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let engine = make_backend_engine backend ~labels meas ~seed in
    let config = { System.default_config with System.dim } in
    let rng = Rng.create seed in
    let system = System.create_with_engine ~config rng engine in
    System.run system ~rounds;
    let rel = System.sampled_relative_errors system rng ~pairs:sample in
    Printf.printf
      "embedding (%s backend, %d nodes, %d rounds): sampled relative error \
       median=%.3f p90=%.3f (%d/%d pairs measured)\n"
      (Backend.kind_name backend) nodes rounds (Stats.median rel)
      (Stats.percentile rel 90.) (Array.length rel) sample;
    if meas.charge_time then
      Printf.printf "virtual time: %.1f s (measurement-aware)\n"
        (Engine.now engine);
    print_probe_summary engine;
    print_backend_summary backend engine;
    set_gauge engine "embed.rel_error_median" (Stats.median rel);
    set_gauge engine "embed.rel_error_p90" (Stats.percentile rel 90.);
    set_gauge engine "embed.nodes" (float_of_int nodes);
    write_metrics meas engine
  in
  let rounds =
    Arg.(value & opt int 20 & info [ "rounds" ] ~docv:"N" ~doc:"Embedding rounds.")
  in
  let dim =
    Arg.(value & opt int 5 & info [ "dim" ] ~docv:"D" ~doc:"Embedding dimension.")
  in
  let sample =
    Arg.(
      value & opt int 2000
      & info [ "sample" ] ~docv:"N"
          ~doc:"Pairs sampled for the error estimate (full-matrix error \
                is off the table at lazy scale).")
  in
  Cmd.v
    (Cmd.info "embed"
       ~doc:"Vivaldi embedding over a delay backend ($(b,--backend lazy) \
             scales to 100k+ nodes with flat memory).")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ rounds $ dim $ sample
      $ meas_term)

(* ---------------------------------------------------------------- *)
(* closest                                                           *)

let closest_cmd =
  let run matrix_file nodes seed kind model_size memo count
      candidate_budget beta queries meas =
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let engine = make_backend_engine backend ~labels meas ~seed in
    let cfg = { Ring.default_config with Ring.beta } in
    let rng = Rng.create seed in
    let count = min count nodes in
    let meridian_nodes = Rng.sample_indices rng ~n:nodes ~k:count in
    let overlay =
      Overlay.build ~candidate_budget rng backend cfg ~meridian_nodes
    in
    let stretches = ref [] and hops = ref 0 and failures = ref 0 in
    for _ = 1 to queries do
      let start = meridian_nodes.(Rng.int rng count) in
      let target = Rng.int rng nodes in
      let outcome = Query.closest overlay engine ~start ~target in
      if Float.is_nan outcome.Query.chosen_delay then incr failures
      else begin
        hops := !hops + outcome.Query.hops;
        (* Optimal among the Meridian members, from ground truth. *)
        let best = ref infinity in
        Array.iter
          (fun m ->
            if m <> target then begin
              let d = Backend.query backend m target in
              if (not (Float.is_nan d)) && d < !best then best := d
            end)
          meridian_nodes;
        if Float.is_finite !best && !best > 1e-9 then
          stretches := (outcome.Query.chosen_delay /. !best) :: !stretches
      end
    done;
    let s = Array.of_list !stretches in
    Printf.printf
      "closest (%s backend, %d nodes, %d meridian, budget %d): %d queries, \
       stretch median=%.2f p90=%.2f, hops/query=%.2f, failures=%d\n"
      (Backend.kind_name backend) nodes count candidate_budget queries
      (Stats.median s) (Stats.percentile s 90.)
      (float_of_int !hops /. float_of_int (max 1 (queries - !failures)))
      !failures;
    print_probe_summary engine;
    print_backend_summary backend engine;
    set_gauge engine "closest.stretch_median" (Stats.median s);
    set_gauge engine "closest.stretch_p90" (Stats.percentile s 90.);
    set_gauge engine "closest.failures" (float_of_int !failures);
    write_metrics meas engine
  in
  let count =
    Arg.(
      value & opt int 64
      & info [ "count" ] ~docv:"N" ~doc:"Meridian node count.")
  in
  let candidate_budget =
    Arg.(
      value & opt int 32
      & info [ "candidate-budget" ] ~docv:"N"
          ~doc:"Peers each Meridian node samples during ring construction \
                (bounded discovery; keeps lazy-backend ring building \
                O(count × budget) queries).")
  in
  let beta =
    Arg.(
      value & opt float 0.5
      & info [ "beta" ] ~docv:"B" ~doc:"Acceptance threshold.")
  in
  let queries =
    Arg.(value & opt int 50 & info [ "queries" ] ~docv:"N" ~doc:"Query count.")
  in
  Cmd.v
    (Cmd.info "closest"
       ~doc:"Meridian closest-node search over a delay backend.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ count $ candidate_budget
      $ beta $ queries $ meas_term)

(* ---------------------------------------------------------------- *)
(* tiv-scan                                                          *)

let tiv_scan_cmd =
  let run matrix_file nodes seed kind model_size memo rounds pairs legs
      worst meas =
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let engine = make_backend_engine backend ~labels meas ~seed in
    let rng = Rng.create seed in
    let system = System.create_with_engine rng engine in
    System.run system ~rounds;
    let points =
      Eval.evaluate_sampled ~engine
        ~predicted:(fun i j -> System.predicted system i j)
        ~pairs ~legs ~worst_fraction:worst
        ~thresholds:Eval.default_thresholds rng
    in
    Printf.printf
      "tiv-scan (%s backend, %d nodes): %d sampled pairs, %d legs each, \
       worst fraction %.0f%%\n"
      (Backend.kind_name backend) nodes pairs legs (100. *. worst);
    Printf.printf "%10s %8s %10s %8s\n" "threshold" "alerts" "accuracy"
      "recall";
    List.iter
      (fun p ->
        Printf.printf "%10.1f %8d %10.3f %8.3f\n" p.Eval.threshold
          p.Eval.alerts p.Eval.accuracy p.Eval.recall)
      points;
    print_probe_summary engine;
    print_backend_summary backend engine;
    write_metrics meas engine
  in
  let rounds =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"N" ~doc:"Vivaldi warm-up rounds for the predictor.")
  in
  let pairs =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"N" ~doc:"Pairs sampled for the sweep.")
  in
  let legs =
    Arg.(
      value & opt int 64
      & info [ "legs" ] ~docv:"N"
          ~doc:"Intermediate nodes sampled per pair for the severity \
                estimate.")
  in
  let worst =
    Arg.(
      value & opt float 0.1
      & info [ "worst" ] ~docv:"F"
          ~doc:"Worst-severity fraction of the sample used as ground truth.")
  in
  Cmd.v
    (Cmd.info "tiv-scan"
       ~doc:"Sampled TIV alert evaluation over a delay backend.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ rounds $ pairs $ legs $ worst
      $ meas_term)

(* ---------------------------------------------------------------- *)
(* metrics-diff                                                      *)

let metrics_diff_cmd =
  let run tol all a_path b_path =
    let read path =
      match open_in_bin path with
      | exception Sys_error msg ->
        prerr_endline ("tivlab: " ^ msg);
        exit 2
      | ic ->
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (try Obs.Json.of_string s
         with Failure msg ->
           prerr_endline (Printf.sprintf "tivlab: %s: %s" path msg);
           exit 2)
    in
    let a = Obs.Diff.strip_trace (read a_path)
    and b = Obs.Diff.strip_trace (read b_path) in
    let deltas = Obs.Diff.deltas a b in
    let changed = ref 0 in
    Printf.printf "%-56s %12s %12s %12s\n" "series" a_path b_path "delta";
    List.iter
      (fun d ->
        let line before after delta =
          Printf.printf "%-56s %12s %12s %12s\n" d.Obs.Diff.series before
            after delta
        in
        match (d.Obs.Diff.before, d.Obs.Diff.after) with
        | Some x, Some y ->
          let close =
            x = y
            || Float.abs (y -. x)
               <= tol *. Float.max (Float.abs x) (Float.abs y)
          in
          if not close then begin
            incr changed;
            line (Printf.sprintf "%g" x) (Printf.sprintf "%g" y)
              (Printf.sprintf "%+g" (Obs.Diff.change d))
          end
          else if all then
            line (Printf.sprintf "%g" x) (Printf.sprintf "%g" y) "="
        | Some x, None ->
          incr changed;
          line (Printf.sprintf "%g" x) "-" "removed"
        | None, Some y ->
          incr changed;
          line "-" (Printf.sprintf "%g" y) "added"
        | None, None -> ())
      deltas;
    Printf.printf "%d series compared, %d differ (tolerance %g)\n"
      (List.length deltas) !changed tol;
    if !changed > 0 then exit 1
  in
  let tol =
    Arg.(
      value & opt float Obs.Diff.default_tolerance
      & info [ "tol" ] ~docv:"F"
          ~doc:"Relative tolerance below which two numbers count as equal.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Also print unchanged series (marked $(b,=)).")
  in
  let a_path =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"A.json" ~doc:"First --metrics-out summary.")
  in
  let b_path =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Second --metrics-out summary.")
  in
  Cmd.v
    (Cmd.info "metrics-diff"
       ~doc:"Compare two --metrics-out summaries series by series; exits 1 \
             when they differ beyond the tolerance.")
    Term.(const run $ tol $ all $ a_path $ b_path)

(* ---------------------------------------------------------------- *)
(* store: replica placement + read-path policy comparison            *)

let store_cmd =
  let run matrix_file nodes seed kind model_size memo (policy_name, policy)
      devices zones part_power replicas objects zipf_s reads duration repair_ms
      repair_share penalty meas =
    let carve =
      arbiter_carve meas ~flag:"repair-share" ~share:repair_share
        ~bg:"store_repair" ~fg:"store"
    in
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let config =
      {
        Store_scenario.devices;
        zones;
        part_power;
        replicas;
        objects;
        zipf_s;
        reads;
        duration;
        repair_interval = repair_ms /. 1000.;
        failure_penalty_ms = penalty;
        seed = seed + 17;
      }
    in
    or_usage_error (fun () ->
        Store_scenario.validate_config "tivlab store" config);
    let engine = make_backend_engine backend ~labels meas ~seed in
    let embed, maint_probes =
      Selectors.maintenance_embedding
        ~config:(make_engine_config ~labels meas ~seed:(seed + 1))
        backend
    in
    let pol =
      match policy with
      | `Naive -> Selection.cached ()
      | `Vivaldi -> Selection.coordinate (embed ())
      | `Meridian -> Selection.probe ()
      | `Alert -> Selection.alert (embed ())
    in
    let arbiter = carve (Backend.size backend) in
    let sc =
      or_usage_error (fun () ->
          Store_scenario.create ?arbiter ~config ~policy:pol ~backend ~engine ())
    in
    let ring = Store_scenario.ring sc in
    let r = Store_scenario.run sc in
    Printf.printf
      "store: policy=%s backend=%s devices=%d zones=%d parts=%d replicas=%d \
       objects=%d zipf=%.2f\n"
      policy_name (Backend.kind_name backend) devices zones
      (Store_ring.parts ring) replicas objects zipf_s;
    Printf.printf
      "store: reads issued=%d completed=%d failed=%d skipped=%d handoffs=%d \
       dead_attempts=%d\n"
      r.Store_scenario.issued r.Store_scenario.completed r.Store_scenario.failed
      r.Store_scenario.skipped r.Store_scenario.handoffs
      r.Store_scenario.dead_attempts;
    let lat = r.Store_scenario.latencies in
    let mean = if lat = [||] then 0. else Stats.mean lat in
    let p50 = if lat = [||] then 0. else Stats.median lat in
    let p99 = if lat = [||] then 0. else Stats.percentile lat 99. in
    let maint_probes = maint_probes () in
    Printf.printf
      "store: latency mean=%.1f p50=%.1f p99=%.1f ms  policy probes=%d  \
       maintenance probes=%d\n"
      mean p50 p99 r.Store_scenario.policy_probes maint_probes;
    let rep = r.Store_scenario.repair in
    Printf.printf "store: repair passes=%d checked=%d rehomed=%d restored=%d denied=%d\n"
      rep.Store_scenario.passes rep.Store_scenario.total_checked
      rep.Store_scenario.total_rehomed rep.Store_scenario.total_restored
      rep.Store_scenario.total_denied;
    print_probe_summary engine;
    set_gauge engine "store.read_mean_ms" mean;
    set_gauge engine "store.read_p50_ms" p50;
    set_gauge engine "store.read_p99_ms" p99;
    set_gauge engine "store.policy_probes" (float_of_int r.Store_scenario.policy_probes);
    set_gauge engine "store.maintenance_probes" (float_of_int maint_probes);
    write_metrics meas engine
  in
  let policy =
    let policies =
      [ ("naive", `Naive); ("vivaldi", `Vivaldi); ("meridian", `Meridian);
        ("alert", `Alert) ]
    in
    Arg.(
      value
      & opt (named_enum policies) ("alert", `Alert)
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Replica selection: $(b,naive) static proximity (probe once, \
                trust forever), $(b,vivaldi) coordinate prediction, \
                $(b,meridian) direct probing of every candidate, or \
                $(b,alert) TIV-alert-aware verification (walk candidates in \
                predicted order, skip flagged likely-TIV edges).")
  in
  let devices =
    Arg.(
      value & opt int 24
      & info [ "devices" ] ~docv:"N"
          ~doc:"Storage devices sampled from the delay space's nodes.")
  in
  let zones =
    Arg.(
      value & opt int 4
      & info [ "zones" ] ~docv:"N" ~doc:"Failure zones (assigned round-robin).")
  in
  let part_power =
    Arg.(
      value & opt int 6
      & info [ "part-power" ] ~docv:"P"
          ~doc:"2^P partitions on the consistent-hashing ring.")
  in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"R" ~doc:"Replicas per partition.")
  in
  let objects =
    Arg.(value & opt int 256 & info [ "objects" ] ~docv:"N" ~doc:"Distinct objects.")
  in
  let zipf_s =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of object popularity (0 = uniform).")
  in
  let reads =
    Arg.(
      value & opt int 600
      & info [ "reads" ] ~docv:"N"
          ~doc:"Client GETs spread evenly over $(b,--duration).")
  in
  let duration =
    Arg.(
      value & opt float 120.
      & info [ "duration" ] ~docv:"SEC" ~doc:"Simulated seconds the workload runs for.")
  in
  let repair_ms =
    Arg.(
      value & opt float 10000.
      & info [ "repair" ] ~docv:"MS"
          ~doc:"Repair-plane interval in milliseconds of simulated time: \
                probe device liveness and re-home partitions off \
                believed-dead devices (0 disables).")
  in
  let repair_share =
    Arg.(
      value & opt float 0.25
      & info [ "repair-share" ] ~docv:"F"
          ~doc:"With $(b,--probe-budget), carve this weight fraction of the \
                system-wide probe allowance into a strict admission bucket \
                for the repair plane (in [0, 1]; 0 or 1 disables arbitration).")
  in
  let penalty =
    Arg.(
      value & opt float 3000.
      & info [ "penalty" ] ~docv:"MS"
          ~doc:"Latency charged per attempt on a dead replica (the client's \
                timeout) before it retries elsewhere.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Object-store reads over a consistent-hashing ring: compare \
             replica-selection policies under churn and dynamics.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ policy $ devices $ zones
      $ part_power $ replicas $ objects $ zipf_s $ reads $ duration
      $ repair_ms $ repair_share $ penalty $ meas_term)

(* ---------------------------------------------------------------- *)
(* stream: P2P live streaming with pluggable neighbor selection      *)

let stream_cmd =
  let run matrix_file nodes seed kind model_size memo (policy_name, policy)
      members chunk_ms deadline_ms buffer pull_ms repair_ms repair_share degree
      duration meas =
    let carve =
      arbiter_carve meas ~flag:"repair-share" ~share:repair_share
        ~bg:"stream_repair" ~fg:"stream"
    in
    let backend, labels =
      make_backend kind ~matrix_file ~nodes ~model_size ~memo ~seed
    in
    let config =
      {
        Stream_swarm.members;
        chunk_ms;
        deadline_ms;
        buffer_chunks = buffer;
        pull_interval = pull_ms /. 1000.;
        repair_interval = repair_ms /. 1000.;
        max_degree = degree;
        duration;
        seed = seed + 23;
      }
    in
    or_usage_error (fun () ->
        Stream_swarm.validate_config "tivlab stream" config);
    let engine = make_backend_engine backend ~labels meas ~seed in
    let embed, maint_probes =
      Selectors.maintenance_embedding
        ~config:(make_engine_config ~labels meas ~seed:(seed + 1))
        backend
    in
    let select =
      match policy with
      | `Naive -> Selection.random ~seed:(seed + 23)
      | `Vivaldi -> Selection.coordinate (embed ())
      | `Alert -> Selection.alert (embed ())
    in
    let arbiter = carve (Backend.size backend) in
    let sw =
      or_usage_error (fun () ->
          Stream_swarm.create ?arbiter ~config ~select ~backend ~engine ())
    in
    let r = Stream_swarm.run sw in
    Printf.printf
      "stream: policy=%s backend=%s members=%d source=%d chunks=%d \
       chunk=%.0fms deadline=%.0fms degree=%d\n"
      policy_name (Backend.kind_name backend) members
      (Stream_swarm.source sw) r.Stream_swarm.chunks chunk_ms deadline_ms degree;
    Printf.printf
      "stream: deadlines on_time=%d missed=%d down=%d miss_rate=%.4f\n"
      r.Stream_swarm.on_time r.Stream_swarm.missed
      r.Stream_swarm.down_at_deadline r.Stream_swarm.miss_rate;
    Printf.printf
      "stream: deliveries=%d duplicates=%d lost_down=%d transfer_failures=%d\n"
      r.Stream_swarm.deliveries r.Stream_swarm.duplicates
      r.Stream_swarm.lost_down r.Stream_swarm.transfer_failures;
    Printf.printf
      "stream: pull exchanges=%d failures=%d requests=%d hits=%d \
       overhead=%.3f\n"
      r.Stream_swarm.pull_exchanges r.Stream_swarm.pull_failures
      r.Stream_swarm.pull_requests r.Stream_swarm.pull_hits
      r.Stream_swarm.overhead_ratio;
    let st = r.Stream_swarm.stretches in
    let s50 = if st = [||] then 0. else Stats.median st in
    let s90 = if st = [||] then 0. else Stats.percentile st 90. in
    Printf.printf "stream: delivery stretch p50=%.2f p90=%.2f (n=%d)\n" s50 s90
      (Array.length st);
    let rep = r.Stream_swarm.repair in
    Printf.printf
      "stream: repair passes=%d denied=%d detached=%d reattached=%d \
       rejoined=%d\n"
      rep.Stream_swarm.passes rep.Stream_swarm.denied
      rep.Stream_swarm.detached rep.Stream_swarm.reattached
      rep.Stream_swarm.rejoined;
    let tm = r.Stream_swarm.tree_metrics in
    Printf.printf
      "stream: tree joined=%d/%d mean_edge=%.1fms median_stretch=%.2f \
       depth=%d fanout=%d\n"
      r.Stream_swarm.joined members tm.Multicast.mean_edge_ms
      tm.Multicast.median_stretch tm.Multicast.max_depth tm.Multicast.max_fanout;
    let maint_probes = maint_probes () in
    Printf.printf "stream: maintenance probes=%d\n" maint_probes;
    print_probe_summary engine;
    set_gauge engine "stream.miss_rate" r.Stream_swarm.miss_rate;
    set_gauge engine "stream.overhead_ratio" r.Stream_swarm.overhead_ratio;
    set_gauge engine "stream.stretch_p50" s50;
    set_gauge engine "stream.stretch_p90" s90;
    set_gauge engine "stream.maintenance_probes" (float_of_int maint_probes);
    write_metrics meas engine
  in
  let policy =
    let policies = [ ("naive", `Naive); ("vivaldi", `Vivaldi); ("alert", `Alert) ] in
    Arg.(
      value
      & opt (named_enum policies) ("alert", `Alert)
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Neighbor selection: $(b,naive) seeded-random attachment, \
                $(b,vivaldi) coordinate-ranked candidates, or $(b,alert) \
                TIV-alert-aware verification of candidates in predicted \
                order (flagged likely-TIV edges rank behind every clean \
                one).")
  in
  let members =
    Arg.(
      value & opt int Stream_swarm.default_config.Stream_swarm.members
      & info [ "members" ] ~docv:"N"
          ~doc:"Swarm size sampled from the delay space (source included).")
  in
  let chunk_ms =
    Arg.(
      value & opt float Stream_swarm.default_config.Stream_swarm.chunk_ms
      & info [ "chunk-ms" ] ~docv:"MS"
          ~doc:"Inter-chunk emission gap in milliseconds of stream time.")
  in
  let deadline_ms =
    Arg.(
      value & opt float Stream_swarm.default_config.Stream_swarm.deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Playback deadline: a chunk not held this many milliseconds \
                after emission is a miss.")
  in
  let buffer =
    Arg.(
      value & opt int Stream_swarm.default_config.Stream_swarm.buffer_chunks
      & info [ "buffer" ] ~docv:"CHUNKS"
          ~doc:"Bounded chunk buffer: the have-map/pull window, in chunks.")
  in
  let pull_ms =
    Arg.(
      value & opt float 2000.
      & info [ "pull" ] ~docv:"MS"
          ~doc:"Pull-plane interval in milliseconds of simulated time: \
                exchange have-maps with the parent and request missing \
                chunks in the buffer window.")
  in
  let repair_ms =
    Arg.(
      value & opt float 5000.
      & info [ "repair" ] ~docv:"MS"
          ~doc:"Repair-plane interval in milliseconds of simulated time: \
                re-graft members orphaned by churn (0 disables).")
  in
  let repair_share =
    Arg.(
      value & opt float 0.25
      & info [ "repair-share" ] ~docv:"F"
          ~doc:"With $(b,--probe-budget), carve this weight fraction of the \
                system-wide probe allowance into a strict admission bucket \
                for the repair plane (in [0, 1]; 0 or 1 disables arbitration).")
  in
  let degree =
    Arg.(
      value & opt int Stream_swarm.default_config.Stream_swarm.max_degree
      & info [ "degree" ] ~docv:"D" ~doc:"Children cap per member.")
  in
  let duration =
    Arg.(
      value & opt float Stream_swarm.default_config.Stream_swarm.duration
      & info [ "duration" ] ~docv:"SEC"
          ~doc:"Simulated seconds of chunk emission (pull and repair run \
                until the last chunk's deadline).")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"P2P live streaming over the delay space: chunk dissemination \
             with playback deadlines, comparing locality-unaware, \
             coordinate-based and TIV-alert-aware neighbor selection.")
    Term.(
      const run $ matrix_arg $ size_arg $ seed_arg $ backend_kind_arg
      $ model_size_arg $ memo_arg $ policy $ members $ chunk_ms
      $ deadline_ms $ buffer $ pull_ms $ repair_ms $ repair_share $ degree
      $ duration $ meas_term)

let () =
  let info =
    Cmd.info "tivlab" ~version:"1.0.0"
      ~doc:"Laboratory for TIV-aware distributed systems (IMC 2007 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; survey_cmd; vivaldi_cmd; meridian_cmd; alert_cmd; import_cmd;
            repair_cmd; synthesize_cmd; dht_cmd; multicast_cmd; embed_cmd;
            closest_cmd; tiv_scan_cmd; store_cmd; stream_cmd; metrics_diff_cmd;
          ]))
