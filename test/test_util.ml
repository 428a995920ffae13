(* Unit and property tests for tivaware.util. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Cdf = Tivaware_util.Cdf
module Binned = Tivaware_util.Binned
module Vec = Tivaware_util.Vec
module Linalg = Tivaware_util.Linalg
module Pqueue = Tivaware_util.Pqueue
module Table = Tivaware_util.Table
module Ascii_plot = Tivaware_util.Ascii_plot

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf_loose eps = Alcotest.check (Alcotest.float eps)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split stream independent" true (!matches < 4)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_rng_gauss_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gauss rng ~mean:5. ~stddev:2.) in
  checkf_loose 0.1 "gauss mean" 5. (Stats.mean samples);
  checkf_loose 0.1 "gauss stddev" 2. (Stats.summarize samples).Stats.stddev

let test_rng_exponential_mean () =
  let rng = Rng.create 12 in
  let samples = Array.init 20_000 (fun _ -> Rng.exponential rng ~rate:0.5) in
  checkf_loose 0.1 "exp mean 1/rate" 2. (Stats.mean samples)

let test_rng_pareto_min () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.pareto rng ~shape:1.5 ~scale:3. in
    Alcotest.(check bool) "pareto >= scale" true (v >= 3.)
  done

let test_rng_uniform_bounds () =
  let rng = Rng.create 21 in
  for _ = 1 to 500 do
    let v = Rng.uniform rng (-3.) 7. in
    Alcotest.(check bool) "uniform in [lo, hi)" true (v >= -3. && v < 7.)
  done

let test_rng_lognormal_positive () =
  let rng = Rng.create 22 in
  let samples = Array.init 5000 (fun _ -> Rng.lognormal rng ~mu:1. ~sigma:0.5) in
  Array.iter
    (fun v -> Alcotest.(check bool) "lognormal positive" true (v > 0.))
    samples;
  (* Median of a lognormal is exp(mu). *)
  checkf_loose 0.2 "lognormal median" (exp 1.) (Stats.median samples)

let test_rng_choice () =
  let rng = Rng.create 14 in
  let arr = [| 1; 5; 9 |] in
  for _ = 1 to 100 do
    let v = Rng.choice rng arr in
    Alcotest.(check bool) "choice member" true (Array.exists (( = ) v) arr)
  done

let prop_rng_int_bounds =
  qcheck "rng int in [0, bound)"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  qcheck "rng float in [0, bound)"
    QCheck2.Gen.(pair (float_range 0.001 1e6) int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0. && v < bound)

let prop_shuffle_multiset =
  qcheck "shuffle preserves elements"
    QCheck2.Gen.(pair (list int) int)
    (fun (l, seed) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_permutation =
  qcheck "permutation is a bijection"
    QCheck2.Gen.(pair (int_range 1 200) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let p = Rng.permutation rng n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all Fun.id seen)

let prop_sample_indices =
  qcheck "sample_indices distinct and in range"
    QCheck2.Gen.(pair (int_range 1 300) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* Exercise both the dense and sparse sampling regimes. *)
      List.for_all
        (fun k ->
          let s = Rng.sample_indices rng ~n ~k in
          let tbl = Hashtbl.create k in
          Array.iter (fun i -> Hashtbl.replace tbl i ()) s;
          Array.length s = k
          && Hashtbl.length tbl = k
          && Array.for_all (fun i -> i >= 0 && i < n) s)
        [ 0; min 1 n; n / 7; n / 2; n ])

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_known () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf "mean" 5. (Stats.mean xs);
  checkf_loose 1e-6 "stddev" (sqrt (32. /. 7.)) (Stats.summarize xs).Stats.stddev;
  checkf "median" 4.5 (Stats.median xs)

let test_stats_percentile_interpolation () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  checkf "p0" 10. (Stats.percentile xs 0.);
  checkf "p100" 40. (Stats.percentile xs 100.);
  checkf "p50 interpolated" 25. (Stats.percentile xs 50.);
  checkf_loose 1e-9 "p25" 17.5 (Stats.percentile xs 25.)

let test_stats_single () =
  checkf "single element" 3. (Stats.percentile [| 3. |] 77.);
  checkf "single median" 3. (Stats.median [| 3. |])

let test_stats_empty () =
  checkf "mean empty" 0. (Stats.mean [||]);
  Alcotest.check_raises "summarize empty"
    (Invalid_argument "Stats.summarize: empty array") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 2. |] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi

let float_list_gen = QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1e3) 1e3))

let prop_percentile_monotone =
  qcheck "percentile monotone in p" float_list_gen (fun l ->
      let xs = Array.of_list l in
      let sorted = Stats.sorted_copy xs in
      let prev = ref neg_infinity in
      List.for_all
        (fun p ->
          let v = Stats.percentile_sorted sorted p in
          let ok = v >= !prev in
          prev := v;
          ok)
        [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ])

let prop_mean_bounded =
  qcheck "mean within [min, max]" float_list_gen (fun l ->
      let xs = Array.of_list l in
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* Costs on a coarse grid, so ties occur, with [nan]s mixed in. *)
let pick_costs_gen =
  QCheck2.Gen.(
    list_size (int_range 0 30)
      (frequency [ (3, map float_of_int (int_range 0 5)); (1, return nan) ]))

let prop_pick_rule =
  qcheck "pick rule: first strict minimum, nan skipped, one call each"
    pick_costs_gen (fun costs ->
      let indexed = List.mapi (fun i c -> (i, c)) costs in
      let expected =
        match
          List.stable_sort
            (fun (_, a) (_, b) -> Float.compare a b)
            (List.filter (fun (_, c) -> not (Float.is_nan c)) indexed)
        with
        | [] -> None
        | (i, _) :: _ -> Some i
      in
      let calls = ref [] in
      let on_list =
        Stats.argmin
          (fun (i, c) ->
            calls := i :: !calls;
            c)
          indexed
      in
      let list_calls = List.rev !calls in
      calls := [];
      let costs_a = Array.of_list costs in
      let on_index =
        Stats.argmin_index
          (fun i ->
            calls := i :: !calls;
            costs_a.(i))
          (Array.length costs_a)
      in
      let all = List.init (List.length costs) Fun.id in
      let cost_of = function
        | None -> None
        | Some i -> Some (i, costs_a.(i))
      in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some (i, c), Some (j, d) -> i = j && Float.equal c d
        | _ -> false
      in
      same (Option.map (fun ((i, _), c) -> (i, c)) on_list) (cost_of expected)
      && same on_index (cost_of expected)
      && list_calls = all
      && List.rev !calls = all)

let test_pick_allocation () =
  (* Preboxed, descending costs: every candidate improves on the best,
     and the cost function returns a float it did not allocate, so any
     growth is the search's own. *)
  let words len =
    let xs = List.init len (fun i -> float_of_int (len - i)) in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Stats.argmin Fun.id xs));
    Gc.minor_words () -. before
  in
  checkf "no words per candidate" (words 10) (words 10_000)

(* ------------------------------------------------------------------ *)
(* Cdf                                                                 *)

let test_sorted_copy_pure () =
  let xs = [| 3.; 1.; 2. |] in
  let sorted = Stats.sorted_copy xs in
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] xs;
  Alcotest.(check (array (float 0.))) "copy sorted" [| 1.; 2.; 3. |] sorted

let test_cdf_basics () =
  let c = Cdf.of_samples [| 1.; 2.; 3.; 4. |] in
  checkf "below min" 0. (Cdf.eval c 0.5);
  checkf "at min" 0.25 (Cdf.eval c 1.);
  checkf "mid" 0.5 (Cdf.eval c 2.5);
  checkf "at max" 1. (Cdf.eval c 4.);
  checkf "above max" 1. (Cdf.eval c 100.)

let test_cdf_points () =
  let c = Cdf.of_samples (Array.init 1000 float_of_int) in
  let pts = Cdf.points ~max_points:10 c in
  Alcotest.(check int) "downsampled" 10 (List.length pts);
  let fractions = List.map snd pts in
  checkf "last fraction is 1" 1. (List.nth fractions 9)

let prop_cdf_monotone =
  qcheck "cdf eval monotone" float_list_gen (fun l ->
      let c = Cdf.of_samples (Array.of_list l) in
      let lo, hi = Stats.min_max (Array.of_list l) in
      let step = (hi -. lo +. 1.) /. 20. in
      let prev = ref (-1.) in
      List.for_all
        (fun k ->
          let v = Cdf.eval c (lo +. (float_of_int k *. step)) in
          let ok = v >= !prev in
          prev := v;
          ok)
        (List.init 22 Fun.id))

(* ------------------------------------------------------------------ *)
(* Binned                                                              *)

let test_binned_basics () =
  let obs = [ (5., 1.); (15., 2.); (17., 4.); (25., 8.) ] in
  let b = Binned.make ~width:10. (List.to_seq obs) in
  Alcotest.(check int) "three bins" 3 (List.length b);
  let second = List.nth b 1 in
  checkf "bin center" 15. second.Binned.x_mid;
  Alcotest.(check int) "bin count" 2 second.Binned.count;
  checkf "bin median" 3. second.Binned.p50

let test_binned_filters () =
  let obs = [ (-5., 1.); (5., 2.); (105., 3.) ] in
  let b = Binned.make ~width:10. ~x_max:100. (List.to_seq obs) in
  Alcotest.(check int) "negative and beyond-max dropped" 1 (List.length b)

let prop_binned_ordered =
  qcheck "bins ordered and percentiles sorted"
    QCheck2.Gen.(list_size (int_range 1 200) (pair (float_range 0. 1000.) (float_range (-10.) 10.)))
    (fun obs ->
      let b = Binned.make ~width:50. (List.to_seq obs) in
      let xs = List.map (fun r -> r.Binned.x_mid) b in
      List.sort compare xs = xs
      && List.for_all
           (fun r -> r.Binned.p10 <= r.Binned.p50 && r.Binned.p50 <= r.Binned.p90)
           b)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_arith () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  checkf "dot" 32. (Vec.dot a b);
  checkf "dist" (sqrt 27.) (Vec.dist a b);
  Alcotest.(check (array (float 0.))) "zero" [| 0.; 0. |] (Vec.zero 2);
  let c = Vec.copy a in
  c.(0) <- 9.;
  checkf "copy is independent" 1. a.(0)

let test_vec_random_unit () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    checkf_loose 1e-9 "unit norm" 1. (Vec.dist (Vec.random_unit rng 5) (Vec.zero 5))
  done

let vec_pair_gen =
  QCheck2.Gen.(
    let v = array_size (return 4) (float_range (-100.) 100.) in
    triple v v v)

let prop_vec_triangle =
  qcheck "euclidean distance satisfies triangle inequality" vec_pair_gen
    (fun (a, b, c) ->
      Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-6)

let prop_vec_dist_symmetric =
  qcheck "distance symmetric" vec_pair_gen (fun (a, b, _) ->
      abs_float (Vec.dist a b -. Vec.dist b a) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)

(* Least squares over a square invertible system is its solution. *)
let test_linalg_solve_known () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x = Linalg.lstsq a b in
  checkf_loose 1e-6 "x0" 1. x.(0);
  checkf_loose 1e-6 "x1" 3. x.(1)

(* The ridge term cannot rescue a system with no rows, nor a
   rank-deficient one whose normal equations dwarf it. *)
let test_linalg_singular () =
  Alcotest.check_raises "no rows" Linalg.Singular (fun () ->
      ignore (Linalg.lstsq [||] [||]));
  let a = [| [| 1e4; 2e4 |]; [| 2e4; 4e4 |] |] in
  Alcotest.check_raises "rank deficient" Linalg.Singular (fun () ->
      ignore (Linalg.lstsq a [| 1.; 1. |]))

let mat_vec a v = Array.map (fun row -> Vec.dot row v) a

let prop_linalg_solve_roundtrip =
  qcheck ~count:100 "solve recovers planted solution"
    QCheck2.Gen.(pair int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      (* Diagonally dominant matrices are always solvable. *)
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 10. +. Rng.float rng 5. else Rng.uniform rng (-1.) 1.))
      in
      let x = Array.init n (fun _ -> Rng.uniform rng (-10.) 10.) in
      let b = mat_vec a x in
      let x' = Linalg.lstsq a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) x x')

let test_linalg_eigen_known () =
  (* diag(3, 1) has eigenpairs (3, e1) and (1, e2). *)
  let c = [| [| 3.; 0. |]; [| 0.; 1. |] |] in
  match Linalg.symmetric_top_eigenpairs c ~k:2 with
  | [ (l1, v1); (l2, v2) ] ->
    checkf_loose 1e-6 "first eigenvalue" 3. l1;
    checkf_loose 1e-6 "second eigenvalue" 1. l2;
    checkf_loose 1e-6 "v1 along e1" 1. (abs_float v1.(0));
    checkf_loose 1e-6 "v2 along e2" 1. (abs_float v2.(1))
  | other -> Alcotest.failf "expected 2 eigenpairs, got %d" (List.length other)

let test_linalg_eigen_rank_deficient () =
  (* Rank-1 matrix: only one non-zero eigenpair should come back. *)
  let c = [| [| 2.; 2. |]; [| 2.; 2. |] |] in
  match Linalg.symmetric_top_eigenpairs c ~k:2 with
  | [ (l1, v1) ] ->
    checkf_loose 1e-6 "eigenvalue 4" 4. l1;
    checkf_loose 1e-6 "direction" (abs_float v1.(0)) (abs_float v1.(1))
  | other -> Alcotest.failf "expected 1 eigenpair, got %d" (List.length other)

let prop_linalg_eigen_residual =
  qcheck ~count:50 "eigenpairs satisfy C v = lambda v"
    QCheck2.Gen.(pair int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      (* Random PSD matrix: A Aᵀ. *)
      let a =
        Array.init n (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-2.) 2.))
      in
      let c = Array.map (fun ai -> Array.map (fun aj -> Vec.dot ai aj) a) a in
      let pairs = Linalg.symmetric_top_eigenpairs ~iterations:1000 c ~k:2 in
      (* Near-degenerate spectra converge slowly, so judge the residual
         relative to the spectral scale. *)
      let scale =
        List.fold_left (fun acc (l, _) -> Float.max acc (abs_float l)) 1. pairs
      in
      List.for_all
        (fun (lambda, v) ->
          let cv = mat_vec c v in
          Array.for_all2
            (fun x y -> abs_float (x -. (lambda *. y)) < 1e-2 *. scale)
            cv v)
        pairs)

let prop_linalg_lstsq_exact =
  qcheck ~count:100 "lstsq recovers exact solution of consistent system"
    QCheck2.Gen.(pair int (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = n + 3 in
      let a =
        Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-5.) 5.))
      in
      let x = Array.init n (fun _ -> Rng.uniform rng (-2.) 2.) in
      let b = mat_vec a x in
      match Linalg.lstsq a b with
      | x' -> Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-3) x x'
      | exception Linalg.Singular -> true (* degenerate random draw *))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

(* Pops one element as [(priority, value)]: [min_prio], then [pop]. *)
let pqueue_take q =
  let p = Pqueue.min_prio q in
  (p, Pqueue.pop q)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3. "c";
  Pqueue.push q 1. "a";
  Pqueue.push q 2. "b";
  Alcotest.(check (pair (float 0.) string)) "pop a" (1., "a") (pqueue_take q);
  Alcotest.(check (pair (float 0.) string)) "pop b" (2., "b") (pqueue_take q);
  Alcotest.(check (pair (float 0.) string)) "pop c" (3., "c") (pqueue_take q);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pqueue.pop: empty queue") (fun () ->
      ignore (Pqueue.pop q))

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1. "first";
  Pqueue.push q 1. "second";
  Pqueue.push q 1. "third";
  Alcotest.(check (pair (float 0.) string)) "tie 1" (1., "first") (pqueue_take q);
  Alcotest.(check (pair (float 0.) string)) "tie 2" (1., "second") (pqueue_take q)

let prop_pqueue_sorted =
  qcheck "pops come out sorted"
    QCheck2.Gen.(list (float_range (-1e3) 1e3))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) prios;
      let rec drain acc = if Pqueue.is_empty q then List.rev acc else drain (fst (pqueue_take q) :: acc) in
      let out = drain [] in
      out = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

module Zipf = Tivaware_util.Zipf

let test_zipf_uniform () =
  (* s = 0 is the uniform distribution. *)
  let z = Zipf.create ~n:4 ~s:0. in
  for k = 0 to 3 do
    checkf_loose 1e-9 "uniform probability" 0.25 (Zipf.probability z k)
  done

let test_zipf_known_probabilities () =
  (* n = 3, s = 1: weights 1, 1/2, 1/3 — harmonic normalization 11/6. *)
  let z = Zipf.create ~n:3 ~s:1. in
  checkf_loose 1e-9 "rank 0" (6. /. 11.) (Zipf.probability z 0);
  checkf_loose 1e-9 "rank 1" (3. /. 11.) (Zipf.probability z 1);
  checkf_loose 1e-9 "rank 2" (2. /. 11.) (Zipf.probability z 2)

let test_zipf_empirical () =
  let z = Zipf.create ~n:8 ~s:0.9 in
  let rng = Rng.create 99 in
  let counts = Array.make 8 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 7 do
    checkf_loose 0.01 "empirical frequency matches probability"
      (Zipf.probability z k)
      (float_of_int counts.(k) /. float_of_int draws)
  done;
  (* Rank popularity is monotone for s > 0. *)
  for k = 0 to 6 do
    Alcotest.(check bool) "lower rank more popular" true
      (counts.(k) >= counts.(k + 1))
  done

let test_zipf_one_draw_per_sample () =
  (* Replayability contract: exactly one generator draw per sample, so
     a Zipf workload interleaved with other seeded draws stays aligned. *)
  let z = Zipf.create ~n:16 ~s:0.9 in
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    ignore (Zipf.sample z a);
    ignore (Rng.float b 1.)
  done;
  check Alcotest.int64 "streams advanced identically" (Rng.int64 a) (Rng.int64 b)

let test_zipf_validation () =
  let bad f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "n = 0 rejected" true
    (bad (fun () -> Zipf.create ~n:0 ~s:1.));
  Alcotest.(check bool) "negative s rejected" true
    (bad (fun () -> Zipf.create ~n:4 ~s:(-0.1)));
  Alcotest.(check bool) "NaN s rejected" true
    (bad (fun () -> Zipf.create ~n:4 ~s:nan))

let prop_zipf_in_range =
  qcheck "samples in [0, n)"
    QCheck2.Gen.(triple (int_range 1 64) (float_range 0. 3.) int)
    (fun (n, s, seed) ->
      let z = Zipf.create ~n ~s in
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let k = Zipf.sample z rng in
          k >= 0 && k < n)
        (List.init 50 Fun.id))

let prop_zipf_probabilities_sum =
  qcheck ~count:100 "probabilities sum to one"
    QCheck2.Gen.(pair (int_range 1 128) (float_range 0. 3.))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let sum = ref 0. in
      for k = 0 to n - 1 do
        sum := !sum +. Zipf.probability z k
      done;
      abs_float (!sum -. 1.) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Nelder_mead                                                         *)

module Nelder_mead = Tivaware_util.Nelder_mead

let test_nm_quadratic () =
  (* Minimize (x-3)^2 + (y+1)^2. *)
  let f v = ((v.(0) -. 3.) ** 2.) +. ((v.(1) +. 1.) ** 2.) in
  let x, value = Nelder_mead.minimize ~f [| 0.; 0. |] in
  checkf_loose 1e-3 "x" 3. x.(0);
  checkf_loose 1e-3 "y" (-1.) x.(1);
  checkf_loose 1e-5 "min value" 0. value

let test_nm_rosenbrock () =
  (* The classic banana function; minimum at (1, 1). *)
  let f v =
    let a = 1. -. v.(0) and b = v.(1) -. (v.(0) *. v.(0)) in
    (a *. a) +. (100. *. b *. b)
  in
  let options =
    { Nelder_mead.default_options with Nelder_mead.max_iterations = 5000 }
  in
  let x, _ = Nelder_mead.minimize ~options ~f [| -1.; 1. |] in
  checkf_loose 0.05 "rosenbrock x" 1. x.(0);
  checkf_loose 0.05 "rosenbrock y" 1. x.(1)

let test_nm_1d () =
  let f v = abs_float (v.(0) -. 7.) in
  let x, _ = Nelder_mead.minimize ~f [| 0. |] in
  checkf_loose 1e-3 "1d minimum" 7. x.(0)

let test_nm_input_not_mutated () =
  let x0 = [| 5.; 5. |] in
  let f v = (v.(0) *. v.(0)) +. (v.(1) *. v.(1)) in
  ignore (Nelder_mead.minimize ~f x0);
  Alcotest.(check (array (float 0.))) "x0 intact" [| 5.; 5. |] x0

let prop_nm_improves =
  qcheck ~count:50 "result never worse than the starting point"
    QCheck2.Gen.(pair int (int_range 1 4))
    (fun (seed, dim) ->
      let rng = Rng.create seed in
      let center = Array.init dim (fun _ -> Rng.uniform rng (-10.) 10.) in
      let f v =
        let acc = ref 0. in
        Array.iteri (fun i x -> acc := !acc +. ((x -. center.(i)) ** 2.)) v;
        !acc
      in
      let x0 = Array.init dim (fun _ -> Rng.uniform rng (-10.) 10.) in
      let _, value = Nelder_mead.minimize ~f x0 in
      value <= f x0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Table / Ascii_plot                                                  *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "contains row cell" true (contains_substring s "alpha");
  Alcotest.(check bool) "contains header cell" true (contains_substring s "value")

let test_table_padding () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only-one" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "renders despite short row" true (String.length s > 0)

let test_ascii_plot () =
  let out = Ascii_plot.plot [ ('x', [ (0., 0.); (1., 1.) ]) ] in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  let empty = Ascii_plot.plot [] in
  Alcotest.(check string) "empty plot" "(empty plot)\n" empty

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "gauss moments" `Quick test_rng_gauss_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_min;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "lognormal" `Quick test_rng_lognormal_positive;
          Alcotest.test_case "choice membership" `Quick test_rng_choice;
          prop_rng_int_bounds;
          prop_rng_float_bounds;
          prop_shuffle_multiset;
          prop_permutation;
          prop_sample_indices;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "single element" `Quick test_stats_single;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "pick allocates nothing per candidate" `Quick
            test_pick_allocation;
          prop_pick_rule;
          Alcotest.test_case "sorted_copy pure" `Quick test_sorted_copy_pure;
          prop_percentile_monotone;
          prop_mean_bounded;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval basics" `Quick test_cdf_basics;
          Alcotest.test_case "points downsampling" `Quick test_cdf_points;
          prop_cdf_monotone;
        ] );
      ( "binned",
        [
          Alcotest.test_case "basics" `Quick test_binned_basics;
          Alcotest.test_case "filters" `Quick test_binned_filters;
          prop_binned_ordered;
        ] );
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "random unit" `Quick test_vec_random_unit;
          prop_vec_triangle;
          prop_vec_dist_symmetric;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve 2x2" `Quick test_linalg_solve_known;
          Alcotest.test_case "singular detection" `Quick test_linalg_singular;
          prop_linalg_solve_roundtrip;
          prop_linalg_lstsq_exact;
          Alcotest.test_case "eigen known" `Quick test_linalg_eigen_known;
          Alcotest.test_case "eigen rank deficient" `Quick test_linalg_eigen_rank_deficient;
          prop_linalg_eigen_residual;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          prop_pqueue_sorted;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform;
          Alcotest.test_case "known probabilities" `Quick
            test_zipf_known_probabilities;
          Alcotest.test_case "empirical frequencies" `Quick test_zipf_empirical;
          Alcotest.test_case "one draw per sample" `Quick
            test_zipf_one_draw_per_sample;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
          prop_zipf_in_range;
          prop_zipf_probabilities_sum;
        ] );
      ( "nelder_mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "one-dimensional" `Quick test_nm_1d;
          Alcotest.test_case "input not mutated" `Quick test_nm_input_not_mutated;
          prop_nm_improves;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "table padding" `Quick test_table_padding;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
        ] );
    ]
