(* Section 3.2.2 figures: how TIVs break Meridian. *)

module Rng = Tivaware_util.Rng
module Table = Tivaware_util.Table
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Euclidean = Tivaware_topology.Euclidean
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Misplacement = Tivaware_meridian.Misplacement
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors

let fig13 ctx =
  Report.section "fig13" "Percentage of Meridian ring members misplaced";
  Report.expectation
    "larger beta tolerates more TIVs; at beta=0.5 placement errors hit \
     10-30%% below 400ms and worse beyond";
  let m = Context.matrix ctx in
  let betas = [ 0.1; 0.5; 0.9 ] in
  let series =
    List.map
      (fun beta -> (beta, Misplacement.misplaced_fraction_by_delay m ~beta ~bin_width:100.))
      betas
  in
  (* Merge the per-beta series on the shared delay bins. *)
  let bins =
    List.sort_uniq compare
      (List.concat_map (fun (_, s) -> List.map fst s) series)
  in
  let table =
    Table.create
      ~header:
        ("delay_ms" :: List.map (fun b -> Printf.sprintf "beta=%.1f" b) betas)
  in
  List.iter
    (fun bin ->
      if bin <= 1000. then
        Table.add_row table
          (Printf.sprintf "%.0f" bin
          :: List.map
               (fun (_, s) ->
                 match List.assoc_opt bin s with
                 | Some f -> Printf.sprintf "%.3f" f
                 | None -> "-")
               series))
    bins;
  Table.print table

(* The worked example of Figure 12, with the paper's exact delays:
   A-T = 12, T-N = 1, A-N = 25, A-B = 11, B-T = 2, B-N = 4. *)
let fig12_matrix () =
  let a = 0 and b = 1 and n = 2 and t = 3 in
  let m = Matrix.create 4 in
  Matrix.set m a t 12.;
  Matrix.set m t n 1.;
  Matrix.set m a n 25.;
  Matrix.set m a b 11.;
  Matrix.set m b t 2.;
  Matrix.set m b n 4.;
  (m, a, b, n, t)

let fig12 ctx =
  Report.section "fig12" "The worked example: Meridian misled by two TIVs";
  Report.expectation
    "query from A for T's closest neighbor returns B (2ms) even though \
     N (1ms) exists: A-N and B-N measurements are TIV-inflated, so N is \
     never asked to probe";
  ignore ctx;
  let m, a, b, n, t = fig12_matrix () in
  let truth = Backend.dense m and engine = Engine.of_matrix m in
  let overlay =
    Tivaware_meridian.Overlay.build (Rng.create 12) truth Ring.default_config
      ~meridian_nodes:[| a; b; n |]
  in
  let outcome = Query.closest overlay engine ~start:a ~target:t in
  Report.measured "chosen %c at %.0f ms (optimal N at 1 ms); path %s"
    (match outcome.Query.chosen with
    | x when x = a -> 'A'
    | x when x = b -> 'B'
    | x when x = n -> 'N'
    | _ -> '?')
    outcome.Query.chosen_delay
    (String.concat "->"
       (List.map
          (fun x -> if x = a then "A" else if x = b then "B" else "N")
          outcome.Query.path));
  (* The TIV alert view: with the embedding-predicted "true" delays the
     restart rule re-examines N. *)
  let predicted i j =
    (* Hypothetical embedding that reflects the short alternative paths. *)
    let key = (min i j, max i j) in
    if key = (a, n) then 13. else if key = (b, n) then 3. else Matrix.get m i j
  in
  let aware_overlay =
    Tivaware_meridian.Overlay.build
      ~placement:
        (Tivaware_meridian.Tiv_aware.placement Ring.default_config ~predicted
           ~engine ())
      (Rng.create 12) truth Ring.default_config ~meridian_nodes:[| a; b; n |]
  in
  let fallback =
    Tivaware_meridian.Tiv_aware.fallback aware_overlay ~predicted ~engine ()
  in
  let aware = Query.closest ~fallback aware_overlay engine ~start:a ~target:t in
  Report.measured "with TIV awareness: chosen %s at %.0f ms"
    (if aware.Query.chosen = n then "N" else "not-N")
    aware.Query.chosen_delay

let ideal_meridian ctx m =
  let n = Matrix.size m in
  let cfg = Ring.unlimited_config n in
  Experiment.run_meridian (Context.rng ctx 14) m ~runs:5
    ~termination:Query.Any_improvement
    ~meridian_count:(Context.meridian_count_ideal ctx)
    ~build:(Selectors.meridian_build m cfg) ()

let fig14 ctx =
  Report.section "fig14" "Meridian under idealized settings: Euclidean vs DS2";
  Report.expectation
    "near-perfect on the Euclidean matrix; on measured-like data Meridian \
     misses the closest neighbor in ~13%% of cases even with unlimited \
     membership and no termination";
  let ds2 = Context.matrix ctx in
  let eucl =
    Euclidean.clustered (Context.rng ctx 141) ~n:(Matrix.size ds2)
      ~centers:
        [
          (Array.make 5 0., 25.);
          ([| 90.; 0.; 0.; 0.; 0. |], 25.);
          ([| 0.; 110.; 0.; 0.; 0. |], 25.);
        ]
  in
  let r_eucl = ideal_meridian ctx eucl in
  let r_ds2 = ideal_meridian ctx ds2 in
  let perfect r =
    let p = r.Experiment.base.Experiment.penalties in
    if Array.length p = 0 then 0.
    else begin
      let ok = Array.fold_left (fun acc x -> if x <= 1e-9 then acc + 1 else acc) 0 p in
      float_of_int ok /. float_of_int (Array.length p)
    end
  in
  Report.measured "perfect selections: Euclidean %.1f%%, DS2-like %.1f%% (miss rate %.1f%%)"
    (100. *. perfect r_eucl) (100. *. perfect r_ds2)
    (100. *. (1. -. perfect r_ds2));
  Report.penalty_cdf_table
    [
      ("Meridian-Euclidean", r_eucl.Experiment.base.Experiment.penalties);
      ("Meridian-DS2", r_ds2.Experiment.base.Experiment.penalties);
    ]

let register () =
  Registry.register "fig12" "Worked TIV example (A, B, N, T)" fig12;
  Registry.register "fig13" "Meridian ring misplacement census" fig13;
  Registry.register "fig14" "Idealized Meridian: Euclidean vs DS2" fig14
