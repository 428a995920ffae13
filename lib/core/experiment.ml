module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend

type result = {
  penalties : float array;
  failures : int;
}

let split_population rng n subset_count =
  let ids = Rng.permutation rng n in
  let subset = Array.sub ids 0 subset_count in
  let rest = Array.sub ids subset_count (n - subset_count) in
  (subset, rest)

(* Index and delay of the measured optimum among candidates; None when
   the client has no measured candidate edge. *)
let optimal_candidate m client candidates =
  Stats.argmin_index
    (fun i ->
      let c = candidates.(i) in
      if c = client then Float.nan else Matrix.get m client c)
    (Array.length candidates)

let run_predictor rng m ?(runs = 5) ~candidate_count ~predict () =
  let n = Matrix.size m in
  if candidate_count < 1 || candidate_count >= n then
    invalid_arg
      (Printf.sprintf
         "Experiment.run_predictor: candidate_count must be in [1, %d) (got %d)"
         n candidate_count);
  let penalties = ref [] and failures = ref 0 in
  for _ = 1 to runs do
    let candidates, clients = split_population rng n candidate_count in
    Array.iter
      (fun client ->
        (* The client trusts its predictor to rank candidates. *)
        let selected =
          Stats.argmin_index
            (fun i -> predict client candidates.(i))
            (Array.length candidates)
        in
        match (selected, optimal_candidate m client candidates) with
        | Some (sel, _), Some (_, opt_d) ->
          let sel_d = Matrix.get m client candidates.(sel) in
          if Float.is_nan sel_d || opt_d <= 0. then incr failures
          else penalties := Penalty.percentage ~selected:sel_d ~optimal:opt_d :: !penalties
        | _ -> incr failures)
      clients
  done;
  { penalties = Array.of_list !penalties; failures = !failures }

type meridian_result = {
  base : result;
  probes : int;
  queries : int;
  hops_mean : float;
  restarts : int;
}

let run_meridian rng m ?(runs = 5) ?termination ?fallback ?engine
    ~meridian_count ~build () =
  let engine =
    match engine with Some e -> e | None -> Engine.of_matrix m
  in
  let n = Matrix.size m in
  if meridian_count < 2 || meridian_count >= n then
    invalid_arg
      (Printf.sprintf
         "Experiment.run_meridian: meridian_count must be in [2, %d) (got %d)"
         n meridian_count);
  let truth = Backend.dense m in
  let penalties = ref [] and failures = ref 0 in
  let probes = ref 0 and queries = ref 0 and hops = ref 0 and restarts = ref 0 in
  for _ = 1 to runs do
    let meridian_nodes, clients = split_population rng n meridian_count in
    let overlay = build rng meridian_nodes in
    let fb = Option.map (fun f -> f overlay) fallback in
    Array.iter
      (fun client ->
        let start = meridian_nodes.(Rng.int rng meridian_count) in
        match Query.optimal overlay truth ~target:client with
        | None -> incr failures
        | Some (_, opt_d) -> (
          if Float.is_nan (Matrix.get m start client) then incr failures
          else begin
            (* Service mode: one logical second per query, so cache
               TTLs and budget refills span queries. *)
            Engine.advance engine 1.;
            let outcome =
              Query.closest ?termination ?fallback:fb overlay engine ~start
                ~target:client
            in
            incr queries;
            probes := !probes + outcome.Query.probes;
            hops := !hops + outcome.Query.hops;
            restarts := !restarts + outcome.Query.restarts;
            (* Noisy measurements may steer the choice, but the client
               pays the true delay of whoever was chosen. *)
            let paid =
              if Float.is_nan outcome.Query.chosen_delay then nan
              else Matrix.get m outcome.Query.chosen client
            in
            if Float.is_nan paid || opt_d <= 0. then incr failures
            else
              penalties :=
                Penalty.percentage ~selected:paid ~optimal:opt_d :: !penalties
          end))
      clients
  done;
  {
    base = { penalties = Array.of_list !penalties; failures = !failures };
    probes = !probes;
    queries = !queries;
    hops_mean =
      (if !queries = 0 then 0. else float_of_int !hops /. float_of_int !queries);
    restarts = !restarts;
  }
