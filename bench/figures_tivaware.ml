(* Section 5.3 figures: TIV-aware Meridian. *)

module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors

let predicted_fn ctx =
  let system = Context.vivaldi ctx in
  fun i j -> Tivaware_vivaldi.System.predicted system i j

let probe_overhead baseline enhanced =
  if baseline.Experiment.probes = 0 then 0.
  else begin
    let b = float_of_int baseline.Experiment.probes in
    let e = float_of_int enhanced.Experiment.probes in
    100. *. (e -. b) /. b
  end

let fig24 ctx =
  Report.section "fig24" "TIV-aware Meridian, normal setting";
  Report.expectation
    "TIV alert (dual ring placement + query restart) improves the \
     penalty CDF at ~6%% extra probes";
  let m = Context.matrix ctx in
  let cfg = Ring.default_config in
  let count = Context.meridian_count_normal ctx in
  let predicted = predicted_fn ctx in
  let engine = Engine.of_matrix m in
  let r_orig =
    Experiment.run_meridian (Context.rng ctx 24) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build m cfg) ()
  in
  let r_aware =
    Experiment.run_meridian (Context.rng ctx 241) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted)
      ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ()) ()
  in
  Report.measured
    "probes: original %d, TIV-alert %d (%+.1f%%); restarts %d over %d queries"
    r_orig.Experiment.probes r_aware.Experiment.probes
    (probe_overhead r_orig r_aware)
    r_aware.Experiment.restarts r_aware.Experiment.queries;
  Report.penalty_cdf_table
    [
      ("Meridian-original", r_orig.Experiment.base.Experiment.penalties);
      ("Meridian-TIV-alert", r_aware.Experiment.base.Experiment.penalties);
    ]

let fig25 ctx =
  Report.section "fig25" "TIV-aware Meridian, full-membership setting";
  Report.expectation
    "with all participants as ring members Meridian is already strong; \
     TIV alert still beats both the original and the no-termination \
     idealization at ~5%% extra probes";
  let m = Context.matrix ctx in
  let count = Context.meridian_count_ideal ctx in
  let cfg = Ring.unlimited_config (Matrix.size m) in
  let predicted = predicted_fn ctx in
  let engine = Engine.of_matrix m in
  let r_orig =
    Experiment.run_meridian (Context.rng ctx 25) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build m cfg) ()
  in
  let r_aware =
    Experiment.run_meridian (Context.rng ctx 251) m ~runs:5 ~meridian_count:count
      ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted)
      ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ()) ()
  in
  let r_noterm =
    Experiment.run_meridian (Context.rng ctx 252) m ~runs:5 ~meridian_count:count
      ~termination:Query.Any_improvement
      ~build:(Selectors.meridian_build m cfg) ()
  in
  Report.measured
    "probes: original %d, TIV-alert %d (%+.1f%%), no-termination %d (%+.1f%%)"
    r_orig.Experiment.probes r_aware.Experiment.probes
    (probe_overhead r_orig r_aware)
    r_noterm.Experiment.probes
    (probe_overhead r_orig r_noterm);
  Report.penalty_cdf_table
    [
      ("Meridian-original", r_orig.Experiment.base.Experiment.penalties);
      ("Meridian-TIV-alert", r_aware.Experiment.base.Experiment.penalties);
      ("Meridian-no-termination", r_noterm.Experiment.base.Experiment.penalties);
    ]

let register () =
  Registry.register "fig24" "TIV-aware Meridian (normal)" fig24;
  Registry.register "fig25" "TIV-aware Meridian (full membership)" fig25
