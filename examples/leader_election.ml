(* Central leader election with Meridian's multi-target query.

   A group of member nodes wants a coordinator that minimizes the
   worst-case (max) delay to all of them — e.g. the sequencer of a
   totally-ordered broadcast group.  Meridian solves this with the same
   recursive protocol as closest-neighbor search, using the max-norm;
   TIVs mislead it the same way.

   Run with:  dune exec examples/leader_election.exe *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query

let () =
  let data = Datasets.generate ~size:220 ~seed:51 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let truth = Backend.dense m and engine = Engine.of_matrix m in
  let rng = Rng.create 52 in
  let meridian_nodes = Rng.sample_indices rng ~n:220 ~k:110 in
  let overlay =
    Overlay.build (Rng.create 53) truth Ring.default_config ~meridian_nodes
  in
  let outsiders =
    Array.to_list (Rng.permutation (Rng.create 54) 220)
    |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
  in
  let penalties = ref [] and perfect = ref 0 and elections = ref 0 in
  (* 100 elections over random 4-member groups. *)
  let rec groups k remaining =
    if k = 0 then ()
    else begin
      match remaining with
      | a :: b :: c :: d :: rest ->
        let targets = [ a; b; c; d ] in
        let start = meridian_nodes.(Rng.int rng (Array.length meridian_nodes)) in
        (match
           ( Query.closest_multi overlay engine ~start ~targets,
             Query.optimal_multi overlay truth ~targets )
         with
        | outcome, Some (_, opt)
          when opt > 0. && not (Float.is_nan outcome.Query.chosen_delay) ->
          (* a start that cannot measure every target answers nan *)
          incr elections;
          let penalty = (outcome.Query.chosen_delay -. opt) /. opt *. 100. in
          penalties := penalty :: !penalties;
          if penalty <= 1e-9 then incr perfect
        | _ -> ());
        groups (k - 1) rest
      | _ -> ()
    end
  in
  groups 100 (outsiders @ outsiders @ outsiders @ outsiders);
  let p = Array.of_list !penalties in
  Printf.printf
    "%d elections over 4-member groups (110 Meridian nodes of 220):\n" !elections;
  Printf.printf "  leader found exactly:     %.0f%%\n"
    (100. *. float_of_int !perfect /. float_of_int !elections);
  Printf.printf "  max-delay penalty median: %.1f%%  p90: %.1f%%\n"
    (Stats.median p) (Stats.percentile p 90.);
  print_endline
    "\nThe same TIV-inflated measurements that hide the nearest neighbor\n\
     also hide the best coordinator; the penalty tail is the TIV tax."
