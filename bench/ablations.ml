(* Ablation benches for the design choices called out in DESIGN.md.
   These go beyond the paper's figures: they quantify how sensitive the
   reproduction is to the knobs we had to pick. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn
module Alert = Tivaware_tiv.Alert
module Eval = Tivaware_tiv.Eval
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Ring = Tivaware_meridian.Ring
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors

let abl_timestep ctx =
  Report.section "abl-timestep" "Vivaldi timestep rule: constant vs adaptive";
  Report.note "adaptive (Dabek et al.) should converge tighter than any fixed delta";
  let m = Context.matrix ctx in
  let variants =
    [
      ("constant 0.05", System.Constant 0.05);
      ("constant 0.25", System.Constant 0.25);
      ("adaptive 0.25/0.25", System.Adaptive { cc = 0.25; ce = 0.25 });
    ]
  in
  List.iter
    (fun (name, timestep) ->
      let config = { System.default_config with System.timestep } in
      let system =
        Selectors.embed_vivaldi ~config ~rounds:ctx.Context.vivaldi_rounds
          (Context.rng ctx 301) m
      in
      let errs = System.absolute_errors system in
      Printf.printf "%-22s abs err p50=%.1f p90=%.1f ms\n" name
        (Stats.median errs) (Stats.percentile errs 90.))
    variants

let abl_dimension ctx =
  Report.section "abl-dimension" "Embedding dimension vs alert quality";
  Report.note
    "alert accuracy for the worst-10%% set at threshold 0.6, per dimension";
  let m = Context.matrix ctx in
  let severity = Context.severity ctx in
  List.iter
    (fun dim ->
      let config = { System.default_config with System.dim } in
      let system =
        Selectors.embed_vivaldi ~config ~rounds:ctx.Context.vivaldi_rounds
          (Context.rng ctx 302) m
      in
      let ratios =
        Alert.ratio_matrix ~measured:m ~predicted:(fun i j ->
            System.predicted system i j)
      in
      match
        Eval.evaluate ~ratios ~severity ~worst_fraction:0.10 ~thresholds:[ 0.6 ]
      with
      | [ p ] ->
        Printf.printf "dim=%d: alerts=%d accuracy=%.3f recall=%.3f\n" dim
          p.Eval.alerts p.Eval.accuracy p.Eval.recall
      | _ -> assert false)
    [ 2; 5; 9 ]

let abl_drop_fraction ctx =
  Report.section "abl-dropfrac" "Dynamic-neighbor eviction aggressiveness";
  Report.note
    "paper drops 32 of 64 candidates; milder eviction keeps more \
     severe edges, harsher risks churn";
  let m = Context.matrix ctx in
  let severity = Context.severity ctx in
  List.iter
    (fun (name, extra_per_want) ->
      (* Emulate different aggressiveness by scaling how many fresh
         candidates are sampled per refresh: sampling fewer candidates
         evicts fewer current neighbors. *)
      let config =
        { System.default_config with System.neighbors_per_node = extra_per_want }
      in
      let system = System.create ~config (Context.rng ctx 303) m in
      System.run system ~rounds:100;
      Dynamic_neighbors.run system
        { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
      let sevs = ref [] in
      List.iter
        (fun (i, j) ->
          if Matrix.known severity i j then sevs := Matrix.get severity i j :: !sevs)
        (System.neighbor_edges system);
      let sevs = Array.of_list !sevs in
      Printf.printf "%-18s neighbor-edge severity mean=%.4f p90=%.4f\n" name
        (Stats.mean sevs) (Stats.percentile sevs 90.))
    [ ("16 neighbors", 16); ("32 neighbors", 32); ("64 neighbors", 64) ]

let abl_beta_sweep ctx =
  Report.section "abl-beta" "Meridian beta sweep vs TIV-alert";
  Report.note
    "raising beta buys accuracy with probes; TIV-alert should sit above \
     the beta curve at equal overhead";
  let m = Context.matrix ctx in
  let count = Context.meridian_count_normal ctx in
  let run_with beta =
    let cfg = { Ring.default_config with Ring.beta } in
    Experiment.run_meridian (Context.rng ctx 304) m ~runs:3 ~meridian_count:count
      ~build:(Selectors.meridian_build m cfg) ()
  in
  List.iter
    (fun beta ->
      let r = run_with beta in
      Printf.printf "beta=%.2f: %s probes=%d\n" beta
        (Tivaware_core.Penalty.summarize r.Experiment.base.Experiment.penalties)
        r.Experiment.probes)
    [ 0.3; 0.5; 0.7; 0.9 ];
  let predicted =
    let system = Context.vivaldi ctx in
    fun i j -> System.predicted system i j
  in
  let cfg = Ring.default_config in
  let engine = Engine.of_matrix m in
  let r =
    Experiment.run_meridian (Context.rng ctx 304) m ~runs:3 ~meridian_count:count
      ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted)
      ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ()) ()
  in
  Printf.printf "TIV-alert (beta=0.5): %s probes=%d\n"
    (Tivaware_core.Penalty.summarize r.Experiment.base.Experiment.penalties)
    r.Experiment.probes

let abl_thresholds ctx =
  Report.section "abl-thresholds" "TIV-aware Meridian ts/tl sensitivity";
  Report.note "paper uses ts=0.6, tl=2.0 without claiming optimality";
  let m = Context.matrix ctx in
  let cfg = Ring.default_config in
  let count = Context.meridian_count_normal ctx in
  let predicted =
    let system = Context.vivaldi ctx in
    fun i j -> System.predicted system i j
  in
  let engine = Engine.of_matrix m in
  List.iter
    (fun (ts, tl) ->
      let r =
        Experiment.run_meridian (Context.rng ctx 305) m ~runs:3
          ~meridian_count:count
          ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted ~ts ~tl)
          ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ~ts ())
          ()
      in
      Printf.printf "ts=%.1f tl=%.1f: %s probes=%d restarts=%d\n" ts tl
        (Tivaware_core.Penalty.summarize r.Experiment.base.Experiment.penalties)
        r.Experiment.probes r.Experiment.restarts)
    [ (0.4, 2.5); (0.6, 2.0); (0.8, 1.5) ]

let abl_gnp ctx =
  Report.section "abl-gnp"
    "Embedding substrates for the TIV alert: Vivaldi vs GNP vs virtual landmarks";
  Report.note
    "the TIV alert needs only *some* embedding; any landmark or \
     decentralized coordinate system should expose the shrunk-edge signal";
  let m = Context.matrix ctx in
  let severity = Context.severity ctx in
  let gnp =
    Tivaware_embedding.Gnp.fit
      ~config:{ Tivaware_embedding.Gnp.default_config with
                Tivaware_embedding.Gnp.landmarks = 15 }
      (Context.rng ctx 306) m
  in
  let vl = Tivaware_embedding.Virtual_landmarks.fit (Context.rng ctx 311) m in
  let report name predicted =
    let err = Tivaware_embedding.Error.evaluate m ~predicted in
    let ratios = Alert.ratio_matrix ~measured:m ~predicted in
    match
      Eval.evaluate ~ratios ~severity ~worst_fraction:0.10 ~thresholds:[ 0.6 ]
    with
    | [ p ] ->
      Printf.printf
        "%-18s rel err p50=%.3f | alert@0.6: alerts=%d acc=%.3f recall=%.3f\n"
        name err.Tivaware_embedding.Error.median_rel p.Eval.alerts p.Eval.accuracy
        p.Eval.recall
    | _ -> assert false
  in
  report "Vivaldi"
    (let s = Context.vivaldi ctx in
     fun i j -> System.predicted s i j);
  report "GNP" (Tivaware_embedding.Gnp.predicted gnp);
  report "virtual landmarks" (Tivaware_embedding.Virtual_landmarks.predicted vl)

let abl_height ctx =
  Report.section "abl-height" "Plain vs height-vector Vivaldi on the DS2 space";
  Report.note
    "heights absorb access-link delay; on a TIV space the gain is \
     limited because TIVs, not access links, dominate the error";
  let m = Context.matrix ctx in
  List.iter
    (fun (name, height) ->
      let config = { System.default_config with System.height } in
      let system =
        Selectors.embed_vivaldi ~config ~rounds:ctx.Context.vivaldi_rounds
          (Context.rng ctx 307) m
      in
      let errs = System.absolute_errors system in
      Printf.printf "%-16s abs err p50=%.1f p90=%.1f ms\n" name
        (Stats.median errs)
        (Stats.percentile errs 90.))
    [ ("euclidean", false); ("with heights", true) ]

let abl_dht ctx =
  Report.section "abl-dht" "Chord PNS: finger proximity source";
  Report.note
    "lookup latency under proximity-oblivious, Vivaldi, TIV-aware and \
     oracle finger selection (shared 600-lookup workload)";
  let module Chord = Tivaware_dht.Chord in
  let module Id_space = Tivaware_dht.Id_space in
  let m = Context.matrix ctx in
  let vivaldi = Context.vivaldi ctx in
  let aware =
    let s = System.create (Context.rng ctx 308) m in
    System.run s ~rounds:100;
    Dynamic_neighbors.run s
      { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
    s
  in
  let rng = Context.rng ctx 309 in
  let workload =
    Array.init 600 (fun _ ->
        (Tivaware_util.Rng.int rng (Matrix.size m),
         Tivaware_util.Rng.int rng Id_space.modulus))
  in
  List.iter
    (fun (name, predict) ->
      let overlay = Chord.build ?predict (Matrix.size m) in
      let latencies =
        Array.map
          (fun (source, key) ->
            (Chord.lookup overlay (Backend.dense m) ~source ~key).Chord.latency)
          workload
      in
      Printf.printf "%-18s median=%.1f p90=%.1f mean=%.1f ms\n" name
        (Stats.median latencies)
        (Stats.percentile latencies 90.)
        (Stats.mean latencies))
    [
      ("plain Chord", None);
      ("PNS/Vivaldi", Some (fun i j -> System.predicted vivaldi i j));
      ("PNS/TIV-aware", Some (fun i j -> System.predicted aware i j));
      ("PNS/oracle", Some (fun i j -> Matrix.get m i j));
    ]

let abl_online ctx =
  Report.section "abl-online" "Online Meridian query latency (event simulator)";
  Report.note
    "timed replay of the recursive protocol: latency includes probe \
     fan-out barriers, so TIVs that add hops also add wall-clock";
  let module Online = Tivaware_meridian.Online in
  let module Overlay = Tivaware_meridian.Overlay in
  let module Sim = Tivaware_eventsim.Sim in
  let m = Context.matrix ctx in
  let n = Matrix.size m in
  let rng = Context.rng ctx 310 in
  let count = Context.meridian_count_normal ctx in
  let nodes = Tivaware_util.Rng.sample_indices rng ~n ~k:count in
  let overlay =
    Overlay.build rng (Backend.dense m) Ring.default_config ~meridian_nodes:nodes
  in
  let engine = Engine.of_matrix m in
  let sim = Sim.create () in
  let latencies = ref [] and probes = ref 0 and queries = ref 0 in
  for _ = 1 to 400 do
    let client = Tivaware_util.Rng.int rng n in
    let start = nodes.(Tivaware_util.Rng.int rng count) in
    let target = Tivaware_util.Rng.int rng n in
    if
      (not (Overlay.is_meridian overlay client))
      && (not (Overlay.is_meridian overlay target))
      && client <> target
      && Matrix.known m client start
      && Matrix.known m start target
    then begin
      let o = Online.closest sim overlay engine ~client ~start ~target in
      latencies := o.Online.latency :: !latencies;
      probes := !probes + o.Online.query.Tivaware_meridian.Query.probes;
      incr queries
    end
  done;
  let lat = Array.of_list !latencies in
  Printf.printf
    "%d queries: latency median=%.0f p90=%.0f ms; %.1f probes/query; \
     virtual time elapsed %.1f s\n"
    !queries (Stats.median lat)
    (Stats.percentile lat 90.)
    (float_of_int !probes /. float_of_int (max 1 !queries))
    (Sim.now sim /. 1000.)

let abl_diversity ctx =
  Report.section "abl-diversity"
    "Meridian ring membership: first-come vs diversity replacement";
  Report.note
    "real Meridian replaces ring members to maximize diversity \
     (hypervolume); does it matter for closest-neighbor accuracy?";
  let module Overlay = Tivaware_meridian.Overlay in
  let m = Context.matrix ctx in
  let count = Context.meridian_count_normal ctx in
  List.iter
    (fun (name, selection) ->
      let build rng nodes =
        Overlay.build ~selection rng (Backend.dense m) Ring.default_config
          ~meridian_nodes:nodes
      in
      let r =
        Experiment.run_meridian (Context.rng ctx 313) m ~runs:3
          ~meridian_count:count ~build ()
      in
      Printf.printf "%-12s %s probes=%d\n" name
        (Tivaware_core.Penalty.summarize r.Experiment.base.Experiment.penalties)
        r.Experiment.probes)
    [ ("first-come", Overlay.First_come); ("diverse", Overlay.Diverse) ]

let abl_gossip ctx =
  Report.section "abl-gossip"
    "Meridian membership: global directory vs gossip discovery";
  Report.note
    "overlays built from event-simulated gossip views vs idealized \
     global knowledge";
  let module Overlay = Tivaware_meridian.Overlay in
  let module Gossip = Tivaware_meridian.Gossip in
  let m = Context.matrix ctx in
  let count = Context.meridian_count_normal ctx in
  List.iter
    (fun (name, duration) ->
      let build rng nodes =
        match duration with
        | None ->
          Overlay.build rng (Backend.dense m) Ring.default_config
            ~meridian_nodes:nodes
        | Some d ->
          let sim = Tivaware_eventsim.Sim.create () in
          let g = Gossip.run sim rng m ~meridian_nodes:nodes ~duration:d in
          Printf.printf "  [%s: coverage %.2f after %d messages]\n" name
            (Gossip.coverage g) (Gossip.messages_sent g);
          Overlay.build ~candidates:(Gossip.candidates_hook g) rng
            (Backend.dense m) Ring.default_config ~meridian_nodes:nodes
      in
      let r =
        Experiment.run_meridian (Context.rng ctx 314) m ~runs:2
          ~meridian_count:count ~build ()
      in
      Printf.printf "%-18s %s\n" name
        (Tivaware_core.Penalty.summarize r.Experiment.base.Experiment.penalties))
    [ ("global", None); ("gossip 30s", Some 30.); ("gossip 120s", Some 120.) ]

let abl_stability ctx =
  Report.section "abl-stability"
    "Synchronous rounds vs event-driven probing (Vivaldi)";
  Report.note
    "the paper simulates synchronized rounds; a deployment probes \
     asynchronously with in-flight staleness — accuracy should match";
  let m = Context.matrix ctx in
  let duration = float_of_int ctx.Context.vivaldi_rounds in
  (* Synchronous driver. *)
  let sync = System.create (Context.rng ctx 312) m in
  System.run sync ~rounds:ctx.Context.vivaldi_rounds;
  let sync_err = Stats.median (System.absolute_errors sync) in
  (* Event-driven driver with one probe per node per second on average. *)
  let async = System.create (Context.rng ctx 312) m in
  let sim = Tivaware_eventsim.Sim.create () in
  let stats = Tivaware_vivaldi.Protocol.run sim async ~duration in
  let async_err = Stats.median (System.absolute_errors async) in
  (* Event-driven under the engine's churn, every node churning: nodes
     fail and rejoin with fresh state. *)
  let e =
    Engine.of_matrix
      ~config:
        { Engine.default_config with churn = Some { Churn.default with fraction = 1. } }
      m
  in
  let churned = System.create_with_engine (Context.rng ctx 312) e in
  let sim2 = Tivaware_eventsim.Sim.create () in
  let cstats =
    Tivaware_vivaldi.Protocol.run sim2 churned ~duration:(2. *. duration)
  in
  let churn_err = Stats.median (System.absolute_errors churned) in
  Printf.printf
    "synchronous:  abs err p50=%.1f ms after %d rounds\n\
     event-driven: abs err p50=%.1f ms after %.0f s (%d probes, %d applied)\n\
     with churn:   abs err p50=%.1f ms (%d up/down transitions, %d probes lost)\n"
    sync_err ctx.Context.vivaldi_rounds async_err duration
    stats.Tivaware_vivaldi.Protocol.probes_sent
    stats.Tivaware_vivaldi.Protocol.probes_completed
    churn_err
    (Churn.transitions (Option.get (Engine.churn e)))
    cstats.Tivaware_vivaldi.Protocol.probes_lost

let register () =
  Registry.register "abl-timestep" "Vivaldi timestep ablation" abl_timestep;
  Registry.register "abl-dimension" "Embedding dimension ablation" abl_dimension;
  Registry.register "abl-dropfrac" "Neighbor eviction ablation" abl_drop_fraction;
  Registry.register "abl-beta" "Meridian beta sweep" abl_beta_sweep;
  Registry.register "abl-thresholds" "TIV-aware thresholds" abl_thresholds;
  Registry.register "abl-gnp" "GNP embedding substrate" abl_gnp;
  Registry.register "abl-height" "Height-vector Vivaldi" abl_height;
  Registry.register "abl-dht" "Chord PNS proximity sources" abl_dht;
  Registry.register "abl-online" "Online Meridian latency" abl_online;
  Registry.register "abl-stability" "Sync vs event-driven Vivaldi" abl_stability;
  Registry.register "abl-diversity" "Meridian ring replacement policy" abl_diversity;
  Registry.register "abl-gossip" "Gossip vs global membership" abl_gossip
