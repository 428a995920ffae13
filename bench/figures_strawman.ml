(* Section 4 figures: strawman solutions that do not (much) help. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Ides = Tivaware_embedding.Ides
module Lat = Tivaware_embedding.Lat
module System = Tivaware_vivaldi.System
module Error = Tivaware_embedding.Error
module Severity = Tivaware_tiv.Severity
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors

let vivaldi_baseline ctx =
  let system = Context.vivaldi ctx in
  Experiment.run_predictor (Context.rng ctx 40) (Context.matrix ctx) ~runs:5
    ~candidate_count:(Context.candidate_count ctx)
    ~predict:(System.predicted system) ()

let fig15 ctx =
  Report.section "fig15" "Neighbor selection: IDES vs Vivaldi";
  Report.expectation
    "IDES (matrix factorization, allows TIV) is WORSE than Vivaldi at \
     neighbor selection despite comparable aggregate accuracy";
  let m = Context.matrix ctx in
  let ides = Ides.fit (Context.rng ctx 15) m in
  Report.note "IDES landmark factorization RMSE: %.2f ms" (Ides.landmark_rmse ides);
  let vivaldi_err =
    Error.evaluate m ~predicted:(System.predicted (Context.vivaldi ctx))
  in
  let ides_err = Error.evaluate m ~predicted:(Ides.predicted ides) in
  Format.printf "aggregate error  Vivaldi: %a@." Error.pp vivaldi_err;
  Format.printf "aggregate error  IDES:    %a@." Error.pp ides_err;
  let r_ides =
    Experiment.run_predictor (Context.rng ctx 150) m ~runs:5
      ~candidate_count:(Context.candidate_count ctx)
      ~predict:(Ides.predicted ides) ()
  in
  let r_vivaldi = vivaldi_baseline ctx in
  Report.penalty_cdf_table
    [
      ("IDES", r_ides.Experiment.penalties);
      ("Vivaldi-original", r_vivaldi.Experiment.penalties);
    ]

let fig16 ctx =
  Report.section "fig16" "Neighbor selection: Vivaldi+LAT vs Vivaldi";
  Report.expectation "LAT only marginally better than original Vivaldi";
  let m = Context.matrix ctx in
  let lat = Lat.fit (Context.rng ctx 16) (Context.vivaldi ctx) in
  let lat_err = Error.evaluate m ~predicted:(Lat.predicted lat) in
  Format.printf "aggregate error  Vivaldi+LAT: %a@." Error.pp lat_err;
  let r_lat =
    Experiment.run_predictor (Context.rng ctx 160) m ~runs:5
      ~candidate_count:(Context.candidate_count ctx)
      ~predict:(Lat.predicted lat) ()
  in
  let r_vivaldi = vivaldi_baseline ctx in
  Report.penalty_cdf_table
    [
      ("Vivaldi-with-LAT", r_lat.Experiment.penalties);
      ("Vivaldi-original", r_vivaldi.Experiment.penalties);
    ]

let banned_worst_20 ctx =
  Selectors.banned_set
    (Severity.worst_edges (Context.severity ctx) ~fraction:0.2)

let fig17 ctx =
  Report.section "fig17" "Vivaldi with global TIV-severity filter (worst 20% edges)";
  Report.expectation
    "removing outlier edges barely improves Vivaldi: TIV is widespread, \
     not an outlier phenomenon";
  let m = Context.matrix ctx in
  let banned = banned_worst_20 ctx in
  let filtered =
    Selectors.embed_vivaldi_filtered ~rounds:ctx.Context.vivaldi_rounds ~banned
      (Context.rng ctx 17) m
  in
  let r_filtered =
    Experiment.run_predictor (Context.rng ctx 170) m ~runs:5
      ~candidate_count:(Context.candidate_count ctx)
      ~predict:(System.predicted filtered) ()
  in
  let r_vivaldi = vivaldi_baseline ctx in
  Report.penalty_cdf_table
    [
      ("Vivaldi-original", r_vivaldi.Experiment.penalties);
      ("Vivaldi-TIV-severity-filter", r_filtered.Experiment.penalties);
    ]

let fig18 ctx =
  Report.section "fig18" "Meridian with TIV-severity filter";
  Report.expectation
    "the filter DEGRADES Meridian: it removes edges queries need, \
     under-populating rings (paper: some rings lose up to 50%%)";
  let m = Context.matrix ctx in
  let cfg = Ring.default_config in
  let banned = banned_worst_20 ctx in
  let count = Context.meridian_count_normal ctx in
  let r_orig =
    Experiment.run_meridian (Context.rng ctx 18) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build m cfg) ()
  in
  let r_filt =
    Experiment.run_meridian (Context.rng ctx 181) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build_filtered m cfg ~banned) ()
  in
  (* Ring population diagnostic on one overlay instance of each kind. *)
  let rng = Context.rng ctx 182 in
  let nodes = Rng.sample_indices rng ~n:(Matrix.size m) ~k:count in
  let pop_orig = Overlay.mean_ring_population (Selectors.meridian_build m cfg rng nodes) in
  let pop_filt =
    Overlay.mean_ring_population
      (Selectors.meridian_build_filtered m cfg ~banned rng nodes)
  in
  print_endline "mean ring population (original / filtered):";
  Array.iteri
    (fun r a ->
      Printf.printf "  ring %2d: %6.2f / %6.2f\n" (r + 1) a pop_filt.(r))
    pop_orig;
  Report.penalty_cdf_table
    [
      ("Meridian-original", r_orig.Experiment.base.Experiment.penalties);
      ("Meridian-TIV-severity-filter", r_filt.Experiment.base.Experiment.penalties);
    ]

let register () =
  Registry.register "fig15" "IDES strawman" fig15;
  Registry.register "fig16" "LAT strawman" fig16;
  Registry.register "fig17" "Vivaldi severity filter" fig17;
  Registry.register "fig18" "Meridian severity filter" fig18
