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
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Error = Tivaware_embedding.Error
module Ring = Tivaware_meridian.Ring
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Penalty = Tivaware_core.Penalty
module Engine = Tivaware_measure.Engine
module Arbiter = Tivaware_measure.Arbiter
module Sim = Tivaware_eventsim.Sim
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
module Dht_scenario = Tivaware_dht.Scenario

let prog = "tivlab"
let or_usage_error f = Harness.or_usage_error ~prog f

(* A percentile of a sample that may be empty (every operation failed,
   nothing measured) is undefined: [nan], which prints as "-"
   ([Harness.number]) and is left out of --metrics-out. *)
let percentile xs p = if xs = [||] then nan else Stats.percentile xs p

(* ---------------------------------------------------------------- *)
(* Shared arguments                                                  *)

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

(* The world of a backend subcommand (dht, multicast, embed, closest,
   tiv-scan, store, stream). *)
let world_term = Harness.world_term ~matrix:matrix_arg ~nodes:size_arg

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

(* ---------------------------------------------------------------- *)
(* Measurement-plane arguments beyond the ones tivd shares           *)

let probe_budget_arg =
  Arg.(
    value & opt int 0
    & info [ "probe-budget" ] ~docv:"N"
        ~doc:"Per-node probe budget: token bucket of capacity N refilled \
              at N tokens per logical second (0 = unlimited).")

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

let meas_term =
  let make (shared : Harness.meas) probe_budget retry_policy profile churn
      churn_fraction dynamics metrics_out =
    {
      shared with
      probe_budget;
      retry_policy;
      profile;
      churn;
      churn_fraction;
      dynamics;
      metrics_out;
    }
  in
  Term.(
    const make $ Harness.meas_term $ probe_budget_arg $ retry_policy_arg
    $ profile_arg $ churn_arg $ churn_fraction_arg $ dynamics_arg
    $ metrics_out_arg)

(* ---------------------------------------------------------------- *)
(* gen                                                               *)

let gen_cmd =
  let run preset size seed output =
    let data = Harness.generate ~prog ~preset ~size ~seed () in
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
    Term.(const run $ preset_arg $ size_arg $ Harness.seed_arg $ output)

(* ---------------------------------------------------------------- *)
(* survey                                                            *)

let survey_cmd =
  let run matrix_file size seed =
    let m, _ = Harness.load_or_generate ~prog matrix_file ~size ~seed in
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
    Term.(const run $ matrix_arg $ size_arg $ Harness.seed_arg)

(* ---------------------------------------------------------------- *)
(* vivaldi                                                           *)

let vivaldi_cmd =
  let run matrix_file size seed rounds dim dynamic candidates meas =
    or_usage_error (fun () -> Harness.at_least "dim" 1 dim);
    let m, labels = Harness.load_or_generate ~prog matrix_file ~size ~seed in
    let config = { System.default_config with System.dim } in
    let rng = Rng.create seed in
    let engine = Harness.matrix_engine ~prog m ~labels meas ~seed in
    let system = Selectors.embed_vivaldi_engine ~config ~rounds rng engine in
    if dynamic > 0 then
      Dynamic_neighbors.run system
        { Dynamic_neighbors.rounds_per_iteration = rounds; iterations = dynamic };
    let err =
      Error.evaluate m ~predicted:(System.predicted system)
    in
    Format.printf "embedding error: %a@." Error.pp err;
    let result =
      or_usage_error (fun () ->
          Experiment.run_predictor rng m ~runs:5 ~candidate_count:candidates
            ~predict:(System.predicted system) ())
    in
    Printf.printf "neighbor selection: %s (failures %d)\n"
      (Penalty.summarize result.Experiment.penalties)
      result.Experiment.failures;
    if meas.Harness.charge_time then
      Printf.printf "virtual time: %.1f s (measurement-aware)\n"
        (Engine.now engine);
    Harness.report meas engine
      ~gauges:
        [
          ("vivaldi.embed_error.median_abs_ms", err.Error.median_abs);
          ("vivaldi.embed_error.p90_abs_ms", err.Error.p90_abs);
          ("vivaldi.embed_error.median_rel", err.Error.median_rel);
          ("vivaldi.embed_error.p90_rel", err.Error.p90_rel);
          ("vivaldi.selection_failures", float_of_int result.Experiment.failures);
        ]
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
      const run $ matrix_arg $ size_arg $ Harness.seed_arg $ rounds $ dim $ dynamic
      $ candidates $ meas_term)

(* ---------------------------------------------------------------- *)
(* meridian                                                          *)

let meridian_cmd =
  let run matrix_file size seed count beta tiv_aware no_termination meas =
    let m, labels = Harness.load_or_generate ~prog matrix_file ~size ~seed in
    let cfg = { Ring.default_config with Ring.beta } in
    let rng = Rng.create seed in
    let engine = Harness.matrix_engine ~prog m ~labels meas ~seed in
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
    Harness.report meas engine
      ~gauges:
        [
          ("meridian.queries", float_of_int result.Experiment.queries);
          ("meridian.hops_mean", result.Experiment.hops_mean);
          ("meridian.restarts", float_of_int result.Experiment.restarts);
          ("meridian.failures", float_of_int result.Experiment.base.Experiment.failures);
        ]
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
      const run $ matrix_arg $ size_arg $ Harness.seed_arg $ count $ beta $ tiv_aware
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
    let m = Harness.load_matrix ~prog input in
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
    or_usage_error (fun () -> Harness.in_unit "worst" worst);
    let m, labels = Harness.load_or_generate ~prog matrix_file ~size ~seed in
    let severity = Severity.all m in
    let system = Selectors.embed_vivaldi (Rng.create seed) m in
    let engine = Harness.matrix_engine ~prog m ~labels meas ~seed in
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
    Harness.report meas engine
  in
  let worst =
    Arg.(
      value & opt float 0.1
      & info [ "worst" ] ~docv:"F" ~doc:"Worst-edge fraction used as ground truth.")
  in
  Cmd.v
    (Cmd.info "alert" ~doc:"Evaluate the TIV alert mechanism.")
    Term.(const run $ matrix_arg $ size_arg $ Harness.seed_arg $ worst $ meas_term)

(* ---------------------------------------------------------------- *)
(* synthesize                                                        *)

let synthesize_cmd =
  let run input output size seed jitter =
    let model = Harness.load_model ~prog input in
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
    Term.(const run $ input $ output $ size $ Harness.seed_arg $ jitter)

(* ---------------------------------------------------------------- *)
(* One scenario path: dht --stabilize, store and stream              *)

(* What a scenario runs on: the world and its engine, the selection
   policy built over the maintenance embedding, the arbiter carve, and
   the maintenance plane's probe count (read after the run). *)
type 'p scenario = {
  backend : Backend.t;
  engine : Engine.t;
  policy : 'p;
  arbiter : Arbiter.t option;
  maintenance_probes : unit -> int;
}

(* Check the arbiter share and [validate] the scenario config before
   any world is built; then build the world and its engine, the
   maintenance embedding (its own engine, seeded [seed + 1]; a policy
   that never asks for coordinates never builds it) and [policy] over
   it, and the strict arbiter carve.  [run] runs the scenario, prints
   its report lines and returns its gauges for the report step.

   The carve gives weight [share] of the system-wide probe allowance
   to a hard admission bucket for the background plane [bg]; the rest
   belongs to the foreground plane [fg].  A share of 0 or 1, or no
   --probe-budget, means no arbitration. *)
let run_scenario world meas ~share:(flag, share) ~planes:(bg, fg) ~validate
    ~policy run =
  or_usage_error (fun () ->
      Harness.in_unit flag share;
      validate ());
  let backend, labels, engine = Harness.build ~prog world meas in
  let embed, maintenance_probes =
    Selectors.maintenance_embedding
      ~config:(Harness.engine_config ~labels meas ~seed:(world.Harness.seed + 1))
      backend
  in
  let policy = policy embed in
  let arbiter =
    if meas.Harness.probe_budget > 0 && share > 0. && share < 1. then begin
      let total = float_of_int (meas.Harness.probe_budget * Backend.size backend) in
      Some
        (Arbiter.create
           (Arbiter.config ~capacity:total ~rate:total
              ~shares:[ (bg, share); (fg, 1. -. share) ]))
    end
    else None
  in
  Harness.report meas engine
    ~gauges:(run { backend; engine; policy; arbiter; maintenance_probes })

(* ---------------------------------------------------------------- *)
(* dht                                                               *)

let dht_cmd =
  let run world lookups candidates pns stabilize_ms keys zipf_s duration
      replicas stab_share fingers_per_round meas =
    let module Chord = Tivaware_dht.Chord in
    let module Id_space = Tivaware_dht.Id_space in
    (* A [nan] or infinite interval takes the scenario path too, whose
       validation rejects it. *)
    if not (stabilize_ms <= 0.) then begin
      (* Continuous stabilization: Dht.Scenario replays the key workload
         over simulated time while every node runs Chord's periodic
         stabilize/notify/fix-fingers rounds.  It always probes through
         the measurement plane (PNS = engine); --pns is ignored here. *)
      let interval = stabilize_ms /. 1000. in
      let config =
        {
          Dht_scenario.keys;
          zipf_s;
          lookups;
          duration;
          interval;
          fingers_per_round;
          replicas;
          candidates;
          seed = world.Harness.seed;
        }
      in
      run_scenario world meas
        ~share:("stabilize-share", stab_share)
        ~planes:("chord_stabilize", "dht")
        ~validate:(fun () ->
          Dht_scenario.validate_config ~nodes:world.Harness.nodes "tivlab dht" config)
        ~policy:ignore
      @@ fun s ->
      let sc =
        or_usage_error (fun () ->
            Dht_scenario.create ?arbiter:s.arbiter ~config ~backend:s.backend
              ~engine:s.engine ())
      in
      let { Dht_scenario.issued; skipped; wrong; hops; latencies; totals; migrated;
            rehomes } =
        Dht_scenario.run sc
      in
      let { Chord.Stabilizer.rounds; checked; rerouted; marked_dead; revived; denied } =
        totals
      in
      Printf.printf
        "stabilize: interval=%gs fingers/round=%d candidates=%d keys=%d zipf=%.2f \
         replicas=%d duration=%gs\n"
        interval fingers_per_round candidates keys zipf_s replicas duration;
      Printf.printf
        "stabilize: rounds=%d probes=%d rerouted=%d marked_dead=%d revived=%d denied=%d\n"
        rounds checked rerouted marked_dead revived denied;
      Printf.printf "keys: migrated=%d copies over %d rehomes\n" migrated rehomes;
      let median = percentile latencies 50. in
      let p90 = percentile latencies 90. in
      let hops_mean =
        if issued = 0 then 0. else float_of_int hops /. float_of_int issued
      in
      let pct =
        if issued = 0 then 0.
        else 100. *. float_of_int (issued - wrong) /. float_of_int issued
      in
      Printf.printf
        "%d lookups (%d skipped, source down): correct=%.1f%% wrong=%d hops \
         mean=%.2f latency median=%s p90=%s ms\n"
        issued skipped pct wrong hops_mean (Harness.number 1 median)
        (Harness.number 1 p90);
      [
        ("dht.lookups", float_of_int issued);
        ("dht.lookup_correct_pct", pct);
        ("dht.hops_mean", hops_mean);
        ("dht.latency_median_ms", median);
        ("dht.latency_p90_ms", p90);
      ]
    end
    else begin
      or_usage_error (fun () ->
          Harness.in_unit "stabilize-share" stab_share;
          Harness.at_least "lookups" 1 lookups;
          Sim.check_work "tivlab dht" [ ("lookups", float_of_int lookups) ]);
      let backend, _, engine = Harness.build ~prog world meas in
      let seed = world.Harness.seed in
      let n = Backend.size backend in
      let rng = Rng.create seed in
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
        | `Vivaldi -> Some (System.predicted (vivaldi ()))
        | `Tiv_aware ->
          let system = vivaldi () in
          Dynamic_neighbors.run system
            { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
          Some (System.predicted system)
      in
      let overlay = or_usage_error (fun () -> Chord.build ~candidates ?predict n) in
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
      let hops_mean = float_of_int !hops /. float_of_int lookups in
      Printf.printf
        "%d lookups: hops mean=%.2f, latency median=%.1f p90=%.1f mean=%.1f ms\n"
        lookups hops_mean (Stats.median lat) (Stats.percentile lat 90.)
        (Stats.mean lat);
      (* Only engine PNS probes; the other sources leave nothing to report. *)
      Harness.report meas engine ~probes:(pns = `Engine)
        ~gauges:
          [
            ("dht.lookups", float_of_int lookups);
            ("dht.hops_mean", hops_mean);
            ("dht.latency_median_ms", Stats.median lat);
            ("dht.latency_p90_ms", Stats.percentile lat 90.);
          ]
    end
  in
  let dht_default = Dht_scenario.default_config in
  let lookups =
    Arg.(
      value & opt int dht_default.lookups
      & info [ "lookups" ] ~docv:"N" ~doc:"Lookup count.")
  in
  let candidates =
    Arg.(
      value & opt int dht_default.candidates
      & info [ "candidates" ] ~docv:"N" ~doc:"PNS arc candidates.")
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
      value & opt int dht_default.keys
      & info [ "keys" ] ~docv:"N"
          ~doc:"Keyspace size for the stabilization scenario.")
  in
  let zipf_s =
    Arg.(
      value & opt float dht_default.zipf_s
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of the key popularity distribution \
                (0 = uniform).")
  in
  let duration =
    Arg.(
      value & opt float dht_default.duration
      & info [ "duration" ] ~docv:"SEC"
          ~doc:"Simulated seconds the stabilization scenario runs for.")
  in
  let replicas =
    Arg.(
      value & opt int dht_default.replicas
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
      value & opt int dht_default.fingers_per_round
      & info [ "fingers-per-round" ] ~docv:"K"
          ~doc:"Finger-table slots each stabilization round refreshes.")
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Chord-like DHT lookups with proximity neighbor selection.")
    Term.(
      const run $ world_term $ lookups $ candidates $ pns $ stabilize
      $ stab_keys $ zipf_s $ duration $ replicas $ stab_share
      $ fingers_per_round $ meas_term)

(* ---------------------------------------------------------------- *)
(* multicast                                                         *)

let multicast_cmd =
  let run world max_degree refreshes tiv_aware measured meas =
    or_usage_error (fun () -> Harness.at_least "refresh" 0 refreshes);
    let backend, _, engine = Harness.build ~prog world meas in
    let seed = world.Harness.seed in
    let rng = Rng.create seed in
    let join_order = Rng.permutation rng (Backend.size backend) in
    let config = { Multicast.default_config with Multicast.max_degree } in
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
        Some (System.predicted system)
      end
    in
    let t =
      or_usage_error (fun () -> Multicast.build ~config ?predict engine ~join_order)
    in
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
    Harness.report meas engine ~probes:measured
      ~gauges:
        [
          ("multicast.members", float_of_int metrics.Multicast.members);
          ("multicast.mean_edge_ms", metrics.Multicast.mean_edge_ms);
          ("multicast.stretch_p50", metrics.Multicast.median_stretch);
          ("multicast.stretch_p90", metrics.Multicast.p90_stretch);
          ("multicast.refresh_switches", float_of_int switches);
        ]
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
      const run $ world_term $ max_degree $ refreshes $ tiv_aware $ measured
      $ meas_term)

(* ---------------------------------------------------------------- *)
(* embed                                                             *)

let embed_cmd =
  let run world rounds dim sample meas =
    or_usage_error (fun () ->
        Harness.at_least "dim" 1 dim;
        Harness.at_least "sample" 1 sample);
    let backend, _, engine = Harness.build ~prog world meas in
    let nodes = Backend.size backend in
    let config = { System.default_config with System.dim } in
    let rng = Rng.create world.Harness.seed in
    let system = System.create_with_engine ~config rng engine in
    System.run system ~rounds;
    let rel = System.sampled_relative_errors system rng ~pairs:sample in
    let median = percentile rel 50. in
    let p90 = percentile rel 90. in
    Printf.printf
      "embedding (%s backend, %d nodes, %d rounds): sampled relative error \
       median=%s p90=%s (%d/%d pairs measured)\n"
      (Backend.kind_name backend) nodes rounds (Harness.number 3 median)
      (Harness.number 3 p90) (Array.length rel) sample;
    if meas.Harness.charge_time then
      Printf.printf "virtual time: %.1f s (measurement-aware)\n"
        (Engine.now engine);
    Harness.report meas engine ~backend
      ~gauges:
        [
          ("embed.rel_error_median", median);
          ("embed.rel_error_p90", p90);
          ("embed.nodes", float_of_int nodes);
        ]
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
    Term.(const run $ world_term $ rounds $ dim $ sample $ meas_term)

(* ---------------------------------------------------------------- *)
(* closest                                                           *)

let closest_cmd =
  let run world count candidate_budget beta queries meas =
    or_usage_error (fun () ->
        Harness.at_least "count" 1 count;
        Harness.at_least "candidate-budget" 1 candidate_budget;
        Harness.at_least "queries" 1 queries);
    let backend, _, engine = Harness.build ~prog world meas in
    let nodes = Backend.size backend in
    let cfg = { Ring.default_config with Ring.beta } in
    let rng = Rng.create world.Harness.seed in
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
    let median = percentile s 50. in
    let p90 = percentile s 90. in
    Printf.printf
      "closest (%s backend, %d nodes, %d meridian, budget %d): %d queries, \
       stretch median=%s p90=%s, hops/query=%.2f, failures=%d\n"
      (Backend.kind_name backend) nodes count candidate_budget queries
      (Harness.number 2 median) (Harness.number 2 p90)
      (float_of_int !hops /. float_of_int (max 1 (queries - !failures)))
      !failures;
    Harness.report meas engine ~backend
      ~gauges:
        [
          ("closest.stretch_median", median);
          ("closest.stretch_p90", p90);
          ("closest.failures", float_of_int !failures);
        ]
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
      const run $ world_term $ count $ candidate_budget $ beta $ queries
      $ meas_term)

(* ---------------------------------------------------------------- *)
(* tiv-scan                                                          *)

let tiv_scan_cmd =
  let run world rounds pairs legs worst meas =
    or_usage_error (fun () ->
        Harness.at_least "pairs" 1 pairs;
        Harness.at_least "legs" 1 legs);
    let backend, _, engine = Harness.build ~prog world meas in
    let rng = Rng.create world.Harness.seed in
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
      (Backend.kind_name backend) (Backend.size backend) pairs legs
      (100. *. worst);
    Printf.printf "%10s %8s %10s %8s\n" "threshold" "alerts" "accuracy"
      "recall";
    List.iter
      (fun p ->
        Printf.printf "%10.1f %8d %10.3f %8.3f\n" p.Eval.threshold
          p.Eval.alerts p.Eval.accuracy p.Eval.recall)
      points;
    Harness.report meas engine ~backend
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
    Term.(const run $ world_term $ rounds $ pairs $ legs $ worst $ meas_term)


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
  let run world (policy_name, policy) devices zones part_power replicas objects
      zipf_s reads duration repair_ms repair_share penalty meas =
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
        seed = world.Harness.seed + 17;
      }
    in
    run_scenario world meas
      ~share:("repair-share", repair_share)
      ~planes:("store_repair", "store")
      ~validate:(fun () -> Store_scenario.validate_config "tivlab store" config)
      ~policy:(fun embed ->
        match policy with
        | `Naive -> Selection.cached ()
        | `Vivaldi -> Selection.coordinate (embed ())
        | `Meridian -> Selection.probe ()
        | `Alert -> Selection.alert (embed ()))
    @@ fun s ->
    let sc =
      or_usage_error (fun () ->
          Store_scenario.create ?arbiter:s.arbiter ~config ~policy:s.policy
            ~backend:s.backend ~engine:s.engine ())
    in
    let ring = Store_scenario.ring sc in
    let r = Store_scenario.run sc in
    Printf.printf
      "store: policy=%s backend=%s devices=%d zones=%d parts=%d replicas=%d \
       objects=%d zipf=%.2f\n"
      policy_name (Backend.kind_name s.backend) devices zones
      (Store_ring.parts ring) replicas objects zipf_s;
    Printf.printf
      "store: reads issued=%d completed=%d failed=%d skipped=%d handoffs=%d \
       dead_attempts=%d\n"
      r.Store_scenario.issued r.Store_scenario.completed r.Store_scenario.failed
      r.Store_scenario.skipped r.Store_scenario.handoffs
      r.Store_scenario.dead_attempts;
    let lat = r.Store_scenario.latencies in
    let mean = if lat = [||] then nan else Stats.mean lat in
    let p50 = percentile lat 50. in
    let p99 = percentile lat 99. in
    let maint_probes = s.maintenance_probes () in
    Printf.printf
      "store: latency mean=%s p50=%s p99=%s ms  policy probes=%d  \
       maintenance probes=%d\n"
      (Harness.number 1 mean) (Harness.number 1 p50) (Harness.number 1 p99)
      r.Store_scenario.policy_probes maint_probes;
    let rep = r.Store_scenario.repair in
    Printf.printf "store: repair passes=%d checked=%d rehomed=%d restored=%d denied=%d\n"
      rep.Store_scenario.passes rep.Store_scenario.total_checked
      rep.Store_scenario.total_rehomed rep.Store_scenario.total_restored
      rep.Store_scenario.total_denied;
    [
      ("store.read_mean_ms", mean);
      ("store.read_p50_ms", p50);
      ("store.read_p99_ms", p99);
      ("store.policy_probes", float_of_int r.Store_scenario.policy_probes);
      ("store.maintenance_probes", float_of_int maint_probes);
    ]
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
  let d = Store_scenario.default_config in
  let devices =
    Arg.(
      value & opt int d.Store_scenario.devices
      & info [ "devices" ] ~docv:"N"
          ~doc:"Storage devices sampled from the delay space's nodes.")
  in
  let zones =
    Arg.(
      value & opt int d.Store_scenario.zones
      & info [ "zones" ] ~docv:"N" ~doc:"Failure zones (assigned round-robin).")
  in
  let part_power =
    Arg.(
      value & opt int d.Store_scenario.part_power
      & info [ "part-power" ] ~docv:"P"
          ~doc:"2^P partitions on the consistent-hashing ring.")
  in
  let replicas =
    Arg.(
      value & opt int d.Store_scenario.replicas
      & info [ "replicas" ] ~docv:"R" ~doc:"Replicas per partition.")
  in
  let objects =
    Arg.(
      value & opt int d.Store_scenario.objects
      & info [ "objects" ] ~docv:"N" ~doc:"Distinct objects.")
  in
  let zipf_s =
    Arg.(
      value & opt float d.Store_scenario.zipf_s
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of object popularity (0 = uniform).")
  in
  let reads =
    Arg.(
      value & opt int d.Store_scenario.reads
      & info [ "reads" ] ~docv:"N"
          ~doc:"Client GETs spread evenly over $(b,--duration).")
  in
  let duration =
    Arg.(
      value & opt float d.Store_scenario.duration
      & info [ "duration" ] ~docv:"SEC" ~doc:"Simulated seconds the workload runs for.")
  in
  let repair_ms =
    Arg.(
      value & opt float (d.Store_scenario.repair_interval *. 1000.)
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
      value & opt float d.Store_scenario.failure_penalty_ms
      & info [ "penalty" ] ~docv:"MS"
          ~doc:"Latency charged per attempt on a dead replica (the client's \
                timeout) before it retries elsewhere.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Object-store reads over a consistent-hashing ring: compare \
             replica-selection policies under churn and dynamics.")
    Term.(
      const run $ world_term $ policy $ devices $ zones $ part_power
      $ replicas $ objects $ zipf_s $ reads $ duration $ repair_ms
      $ repair_share $ penalty $ meas_term)

(* ---------------------------------------------------------------- *)
(* stream: P2P live streaming with pluggable neighbor selection      *)

let stream_cmd =
  let run world (policy_name, policy) members chunk_ms deadline_ms buffer
      pull_ms repair_ms repair_share degree duration meas =
    let seed = world.Harness.seed in
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
    run_scenario world meas
      ~share:("repair-share", repair_share)
      ~planes:("stream_repair", "stream")
      ~validate:(fun () -> Stream_swarm.validate_config "tivlab stream" config)
      ~policy:(fun embed ->
        match policy with
        | `Naive -> Selection.random ~seed:(seed + 23)
        | `Vivaldi -> Selection.coordinate (embed ())
        | `Alert -> Selection.alert (embed ()))
    @@ fun s ->
    let sw =
      or_usage_error (fun () ->
          Stream_swarm.create ?arbiter:s.arbiter ~config ~select:s.policy
            ~backend:s.backend ~engine:s.engine ())
    in
    let r = Stream_swarm.run sw in
    Printf.printf
      "stream: policy=%s backend=%s members=%d source=%d chunks=%d \
       chunk=%.0fms deadline=%.0fms degree=%d\n"
      policy_name (Backend.kind_name s.backend) members
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
    let s50 = percentile st 50. in
    let s90 = percentile st 90. in
    Printf.printf "stream: delivery stretch p50=%s p90=%s (n=%d)\n"
      (Harness.number 2 s50) (Harness.number 2 s90) (Array.length st);
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
    let maint_probes = s.maintenance_probes () in
    Printf.printf "stream: maintenance probes=%d\n" maint_probes;
    [
      ("stream.miss_rate", r.Stream_swarm.miss_rate);
      ("stream.overhead_ratio", r.Stream_swarm.overhead_ratio);
      ("stream.stretch_p50", s50);
      ("stream.stretch_p90", s90);
      ("stream.maintenance_probes", float_of_int maint_probes);
    ]
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
      const run $ world_term $ policy $ members $ chunk_ms $ deadline_ms
      $ buffer $ pull_ms $ repair_ms $ repair_share $ degree $ duration
      $ meas_term)

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
