(* Tests for the measurement plane: oracle, budgets, TTL cache, fault
   injection, probe accounting, and the oracle-mode equivalence of the
   rewired protocol layers. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Oracle = Tivaware_measure.Oracle
module Budget = Tivaware_measure.Budget
module Cache = Tivaware_measure.Cache
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Arbiter = Tivaware_measure.Arbiter
module Engine = Tivaware_measure.Engine
module Probe_stats = Tivaware_measure.Probe_stats
module Churn = Tivaware_measure.Churn
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Backend = Tivaware_backend.Delay_backend

let checkf = Alcotest.check (Alcotest.float 1e-9)
let checki = Alcotest.(check int)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:300.

let engine ?(fault = Fault.default) ?profile ?churn ?dynamics ?budget
    ?cache_ttl ?cache_capacity ?(charge_time = false) ?(seed = 7) m =
  Engine.of_matrix
    ~config:
      {
        Engine.fault;
        profile;
        churn;
        dynamics;
        budget;
        cache_ttl;
        cache_capacity;
        charge_time;
        seed;
      }
    m

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_matrix () =
  let m = euclidean_matrix 1 20 in
  let o = Oracle.of_matrix m in
  checki "size" 20 (Oracle.size o);
  checkf "lookup" (Matrix.get m 3 9) (Oracle.query o 3 9);
  checkf "diagonal" 0. (Oracle.query o 4 4);
  Alcotest.(check bool) "matrix recoverable" true (Oracle.matrix o = Some m)

let test_oracle_fn () =
  let o = Oracle.of_fn ~size:5 (fun i j -> float_of_int (i + j)) in
  checkf "fn lookup" 7. (Oracle.query o 3 4);
  Alcotest.(check bool) "no backing matrix" true (Oracle.matrix o = None)

(* ------------------------------------------------------------------ *)
(* Oracle-mode equivalence: the rewired layers reproduce seed results  *)

let test_default_engine_is_oracle () =
  let m = euclidean_matrix 2 30 in
  let e = Engine.of_matrix m in
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let i = Rng.int rng 30 and j = Rng.int rng 30 in
    checkf "rtt = Matrix.get" (Matrix.get m i j) (Engine.rtt e i j)
  done;
  let st = Engine.stats e in
  checki "every request issued" st.Probe_stats.requests st.Probe_stats.issued;
  checki "nothing lost" 0 st.Probe_stats.lost;
  checki "nothing denied" 0 st.Probe_stats.denied

let test_vivaldi_engine_path_identical () =
  let m = euclidean_matrix 4 40 in
  let a = System.create (Rng.create 5) m in
  let b = System.create_with_engine (Rng.create 5) (Engine.of_matrix m) in
  System.run a ~rounds:30;
  System.run b ~rounds:30;
  for i = 0 to 39 do
    let ca = System.coord a i and cb = System.coord b i in
    Array.iteri (fun d v -> checkf "coordinate equal" v cb.(d)) ca
  done

let test_meridian_engine_path_identical () =
  let m = euclidean_matrix 6 60 in
  let rng = Rng.create 7 in
  let nodes = Rng.sample_indices rng ~n:60 ~k:30 in
  let overlay =
    Overlay.build (Rng.create 8) (Backend.dense m) Ring.default_config
      ~meridian_nodes:nodes
  in
  let outsiders =
    Array.to_list (Rng.permutation (Rng.create 9) 60)
    |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
  in
  let target = List.hd outsiders in
  let start = nodes.(0) in
  (* A fresh oracle-mode engine and one that already served other
     queries answer alike: the engine carries no state between queries,
     so drivers may share one across a whole run. *)
  let a = Query.closest overlay (Engine.of_matrix m) ~start ~target in
  let shared = Engine.of_matrix m in
  List.iter
    (fun t -> ignore (Query.closest overlay shared ~start ~target:t))
    (List.rev outsiders);
  let b = Query.closest overlay shared ~start ~target in
  checki "same chosen" a.Query.chosen b.Query.chosen;
  checkf "same delay" a.Query.chosen_delay b.Query.chosen_delay;
  checki "same probes" a.Query.probes b.Query.probes;
  checki "same hops" a.Query.hops b.Query.hops

(* ------------------------------------------------------------------ *)
(* Cache TTL                                                           *)

let test_cache_ttl_expiry () =
  let m = euclidean_matrix 10 20 in
  let e = engine ~cache_ttl:10. m in
  let d1 = Engine.rtt e 1 2 in
  let st () = Engine.stats e in
  checki "first lookup misses" 1 (st ()).Probe_stats.misses;
  checki "first lookup issued" 1 (st ()).Probe_stats.issued;
  let d2 = Engine.rtt e 1 2 in
  checkf "served from cache" d1 d2;
  checki "hit recorded" 1 (st ()).Probe_stats.hits;
  checki "no extra probe" 1 (st ()).Probe_stats.issued;
  (* Symmetric key: the reverse direction hits too. *)
  ignore (Engine.rtt e 2 1);
  checki "reverse direction hits" 2 (st ()).Probe_stats.hits;
  Engine.advance e 10.5;
  ignore (Engine.rtt e 1 2);
  checki "expired entry is stale" 1 (st ()).Probe_stats.stale;
  checki "stale entry re-probed" 2 (st ()).Probe_stats.issued;
  (* The re-probe refreshed the entry at t=10.5. *)
  ignore (Engine.rtt e 1 2);
  checki "refreshed entry hits again" 3 (st ()).Probe_stats.hits

let test_cache_unit () =
  let c = Cache.create ~ttl:5. () in
  Alcotest.(check bool) "miss on empty" true (Cache.find c ~now:0. 1 2 = Cache.Miss);
  checki "no eviction on store" 0 (Cache.store c ~now:0. 1 2 42.);
  Alcotest.(check bool) "hit fresh" true (Cache.find c ~now:4. 2 1 = Cache.Hit 42.);
  Alcotest.(check bool) "hit at ttl boundary" true
    (Cache.find c ~now:5. 1 2 = Cache.Hit 42.);
  Alcotest.(check bool) "stale past ttl" true
    (Cache.find c ~now:5.1 1 2 = Cache.Stale);
  Alcotest.(check bool) "stale evicts" true (Cache.find c ~now:5.1 1 2 = Cache.Miss);
  checki "nan not stored" 0 (Cache.store c ~now:0. 3 4 nan);
  Alcotest.(check bool) "nan not cached" true (Cache.find c ~now:0. 3 4 = Cache.Miss)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 ~ttl:100. () in
  checki "store a" 0 (Cache.store c ~now:0. 0 1 10.);
  checki "store b" 0 (Cache.store c ~now:0. 0 2 20.);
  (* Touch (0,1) so (0,2) becomes the LRU entry. *)
  Alcotest.(check bool) "touch a" true (Cache.find c ~now:1. 0 1 = Cache.Hit 10.);
  checki "third store evicts one" 1 (Cache.store c ~now:1. 0 3 30.);
  checki "length bounded" 2 (Cache.length c);
  Alcotest.(check bool) "LRU entry gone" true (Cache.find c ~now:1. 0 2 = Cache.Miss);
  Alcotest.(check bool) "recent entry kept" true
    (Cache.find c ~now:1. 0 1 = Cache.Hit 10.);
  Alcotest.(check bool) "new entry kept" true
    (Cache.find c ~now:1. 0 3 = Cache.Hit 30.);
  (* Re-storing a resident pair refreshes in place: no eviction. *)
  checki "refresh does not evict" 0 (Cache.store c ~now:2. 0 1 11.);
  checki "cumulative evictions" 1 (Cache.evictions c)

(* [find_code] is the non-allocating twin of [find] on the engine hot
   path: same outcome, same recency side effects (a hit refreshes LRU
   order, a stale lookup evicts), value returned through the out
   param. *)
let test_cache_find_code () =
  let c = Cache.create ~ttl:5. () in
  let into = [| nan |] in
  checki "miss on empty" Cache.code_miss (Cache.find_code c ~now:0. ~into 1 2);
  Alcotest.(check bool) "miss leaves out param untouched" true
    (Float.is_nan into.(0));
  ignore (Cache.store c ~now:0. 1 2 42.);
  checki "hit fresh" Cache.code_hit (Cache.find_code c ~now:4. ~into 2 1);
  checkf "hit stores the value" 42. into.(0);
  into.(0) <- (-1.);
  checki "stale past ttl" Cache.code_stale (Cache.find_code c ~now:5.1 ~into 1 2);
  checkf "stale leaves out param untouched" (-1.) into.(0);
  (* The stale lookup evicted, exactly like [find]. *)
  checki "stale evicted the entry" Cache.code_miss
    (Cache.find_code c ~now:5.1 ~into 1 2);
  (* A hit through find_code refreshes recency: after touching (0,1),
     the LRU victim of a full cache is (0,2), not (0,1). *)
  let c = Cache.create ~capacity:2 ~ttl:100. () in
  ignore (Cache.store c ~now:0. 0 1 10.);
  ignore (Cache.store c ~now:1. 0 2 20.);
  checki "touch the older entry" Cache.code_hit
    (Cache.find_code c ~now:2. ~into 0 1);
  checki "third store evicts one" 1 (Cache.store c ~now:3. 0 3 30.);
  checki "victim is the untouched entry" Cache.code_miss
    (Cache.find_code c ~now:3. ~into 0 2);
  checki "touched entry survives" Cache.code_hit
    (Cache.find_code c ~now:3. ~into 0 1);
  checkf "and still reads its value" 10. into.(0);
  checki "eviction counted" 1 (Cache.evictions c)

(* ------------------------------------------------------------------ *)
(* Fault injection out-param path                                      *)

(* [attempt_into] must consume the generator exactly as [attempt]
   does: two injectors with the same seed driven through the two entry
   points must agree drop-for-drop and sample-for-sample — that is
   what lets the engine hot path switch freely between them.  The
   engine looks a link up once per request and reuses it for every
   attempt, so [attempt_into] here reuses one lookup for a burst of
   attempts on a heterogeneous profile, as [attempt] looks it up each
   time. *)
let test_fault_attempt_into_equivalence () =
  let config = { Fault.default with Fault.loss = 0.3; jitter = 0.2 } in
  let profile = Profile.random ~loss:0.3 ~jitter:0.2 ~seed:9 () in
  let mk seed = Fault.create ~config ~profile (Rng.create seed) ~n:16 in
  let a = mk 42 and b = mk 42 in
  let into = [| nan |] in
  for k = 0 to 199 do
    let i = k mod 16 and j = (k * 7 + 1) mod 16 in
    let lk = Fault.link b i j in
    for burst = 0 to k mod 3 do
      let rtt = 50. +. float_of_int (k + burst) in
      let boxed = Fault.attempt a i j ~rtt in
      let delivered = Fault.attempt_into b lk ~rtt ~into in
      match boxed with
      | Fault.Delivered d ->
          Alcotest.(check bool) "both delivered" true delivered;
          checkf "same jittered sample" d into.(0)
      | Fault.Dropped -> Alcotest.(check bool) "both dropped" false delivered
    done
  done

let test_fault_attempt_into_reuse () =
  (* Certain loss: the out param is never written, so a stale value
     from an earlier call must survive — the engine reuses one array
     across every probe. *)
  let all_lost =
    Fault.create
      ~config:{ Fault.default with Fault.loss = 0.999999 }
      (Rng.create 5) ~n:4
  in
  let into = [| 123.25 |] in
  let any_delivered = ref false in
  for _ = 1 to 50 do
    if Fault.attempt_into all_lost (Fault.link all_lost 0 1) ~rtt:10. ~into then any_delivered := true
  done;
  Alcotest.(check bool) "everything dropped" false !any_delivered;
  checkf "dropped attempts never touch the out param" 123.25 into.(0);
  (* Fault-free: every call overwrites the same cell with the exact
     RTT (no jitter), regardless of what the previous call left. *)
  let clean = Fault.create (Rng.create 6) ~n:4 in
  Alcotest.(check bool) "delivered" true
    (Fault.attempt_into clean (Fault.link clean 0 1) ~rtt:17.5 ~into);
  checkf "sample written over the stale value" 17.5 into.(0);
  Alcotest.(check bool) "delivered again" true
    (Fault.attempt_into clean (Fault.link clean 1 2) ~rtt:3.25 ~into);
  checkf "cell reused" 3.25 into.(0)

(* ------------------------------------------------------------------ *)
(* Arbiter                                                             *)

let test_arbiter_shares () =
  (* Capacity 40 split 1:3 — the background plane can burst 10, the
     foreground 30, and neither can borrow from the other. *)
  let a =
    Arbiter.create
      (Arbiter.config ~capacity:40. ~rate:4.
         ~shares:[ ("chord_stabilize", 1.); ("dht", 3.) ])
  in
  let drain ?(now = 0.) plane =
    let k = ref 0 in
    while Arbiter.admit a ~now plane do
      incr k
    done;
    !k
  in
  checki "background carve" 10 (drain "chord_stabilize");
  checki "foreground carve" 30 (drain "dht");
  checki "granted counted" 10 (Arbiter.granted a "chord_stabilize");
  checki "denied counted" 1 (Arbiter.denied a "chord_stabilize");
  (* Refill is proportional to the share: 4 tokens/s split 1:3. *)
  Alcotest.(check bool) "background refilled one token" true
    (Arbiter.admit a ~now:1. "chord_stabilize");
  Alcotest.(check bool) "and only one" false
    (Arbiter.admit a ~now:1. "chord_stabilize");
  checki "foreground refilled three" 3 (drain ~now:1. "dht");
  (* Unlisted planes are never refused and never run dry. *)
  for _ = 1 to 100 do
    Alcotest.(check bool) "unlisted plane admitted" true
      (Arbiter.admit a ~now:1. "vivaldi")
  done;
  checkf "unlisted tokens are infinite" infinity
    (Arbiter.tokens a ~now:1. "vivaldi");
  (* The clock is monotonic per plane: a lagging [now] neither refills
     nor raises. *)
  Alcotest.(check bool) "stale clock grants nothing extra" false
    (Arbiter.admit a ~now:0.5 "chord_stabilize")

let test_arbiter_validation () =
  let bad cfg =
    match Arbiter.create cfg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty shares rejected" true
    (bad (Arbiter.config ~capacity:10. ~rate:1. ~shares:[]));
  Alcotest.(check bool) "duplicate plane rejected" true
    (bad
       (Arbiter.config ~capacity:10. ~rate:1.
          ~shares:[ ("a", 1.); ("a", 2.) ]));
  Alcotest.(check bool) "non-positive weight rejected" true
    (bad (Arbiter.config ~capacity:10. ~rate:1. ~shares:[ ("a", 0.) ]));
  Alcotest.(check bool) "negative capacity rejected" true
    (bad (Arbiter.config ~capacity:(-1.) ~rate:1. ~shares:[ ("a", 1.) ]));
  Alcotest.(check bool) "NaN rate rejected" true
    (bad (Arbiter.config ~capacity:10. ~rate:nan ~shares:[ ("a", 1.) ]));
  (* A carve below one token could never admit anything: flagged at
     construction instead of silently denying forever. *)
  Alcotest.(check bool) "sub-token carve rejected" true
    (bad
       (Arbiter.config ~capacity:10. ~rate:1.
          ~shares:[ ("tiny", 0.001); ("big", 99.999) ]))

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)

let test_budget_exhaustion_fallback () =
  let m = euclidean_matrix 11 20 in
  (* Capacity 2, no refill within the test window (rate refills only as
     the clock advances, which we don't do here). *)
  let e = engine ~budget:(Budget.per_node ~capacity:2. ~rate:1.) m in
  let d1 = Engine.rtt e 0 1 and d2 = Engine.rtt e 0 2 in
  Alcotest.(check bool) "first two admitted" true
    (not (Float.is_nan d1) && not (Float.is_nan d2));
  (* Third probe from node 0 is denied: the caller sees nan and falls
     back, exactly like a missing measurement. *)
  Alcotest.(check bool) "third denied => nan" true (Float.is_nan (Engine.rtt e 0 3));
  Alcotest.(check bool) "probe outcome is Denied" true
    (Engine.probe e 0 4 = Engine.Denied);
  let st = Engine.stats e in
  checki "denials counted" 2 st.Probe_stats.denied;
  checki "only two probes issued" 2 st.Probe_stats.issued;
  (* Other nodes have their own buckets. *)
  Alcotest.(check bool) "peer bucket unaffected" true
    (not (Float.is_nan (Engine.rtt e 5 6)));
  (* Refill with the logical clock. *)
  Engine.advance e 2.;
  Alcotest.(check bool) "refilled after advance" true
    (not (Float.is_nan (Engine.rtt e 0 3)))

let test_budget_global_limit () =
  let m = euclidean_matrix 12 20 in
  let budget =
    {
      Budget.unlimited with
      Budget.global_capacity = 3.;
      global_rate = 0.;
    }
  in
  let e = engine ~budget m in
  for i = 0 to 2 do
    Alcotest.(check bool) "admitted" true (not (Float.is_nan (Engine.rtt e i (i + 10))))
  done;
  Alcotest.(check bool) "global bucket empty" true
    (Float.is_nan (Engine.rtt e 7 8));
  checki "denied" 1 (Engine.stats e).Probe_stats.denied

let test_budget_vivaldi_fallback () =
  (* A starved embedding still runs: denied observations are skipped. *)
  let m = euclidean_matrix 13 20 in
  let e = engine ~budget:(Budget.per_node ~capacity:1. ~rate:0.1) m in
  let s = System.create_with_engine (Rng.create 14) e in
  System.run s ~rounds:10;
  let st = Engine.stats e in
  Alcotest.(check bool) "some probes denied" true (st.Probe_stats.denied > 0);
  Alcotest.(check bool) "some probes admitted" true (st.Probe_stats.issued > 0)

(* ------------------------------------------------------------------ *)
(* Seeded jitter determinism                                           *)

let jitter_fault = { Fault.default with Fault.jitter = 0.25 }

let test_jitter_determinism () =
  let m = euclidean_matrix 15 30 in
  let sequence seed =
    let e = engine ~fault:jitter_fault ~seed m in
    Array.init 100 (fun k -> Engine.rtt e (k mod 29) ((k mod 7) + 23))
  in
  let a = sequence 42 and b = sequence 42 in
  Array.iteri (fun k v -> checkf "same seed, same samples" v b.(k)) a;
  let c = sequence 43 in
  Alcotest.(check bool) "different seed differs" true
    (Array.exists2 (fun x y -> x <> y) a c)

let test_jitter_bounds_and_bias () =
  let m = euclidean_matrix 16 30 in
  let e = engine ~fault:jitter_fault m in
  for _ = 1 to 50 do
    let i = 3 and j = 17 in
    let truth = Matrix.get m i j in
    let sample = Engine.rtt e i j in
    Alcotest.(check bool) "within multiplicative band" true
      (sample >= truth *. 0.75 && sample <= truth *. 1.25)
  done

(* ------------------------------------------------------------------ *)
(* Loss and retries                                                    *)

let test_loss_retry_accounting () =
  let m = euclidean_matrix 17 20 in
  (* Certain loss: every attempt drops, retries burn and fail. *)
  let e =
    engine ~fault:{ Fault.default with Fault.loss = 0.999999; retries = 2 } m
  in
  Alcotest.(check bool) "lost => nan" true (Float.is_nan (Engine.rtt e 0 1));
  Alcotest.(check bool) "outcome is Lost" true (Engine.probe e 0 2 = Engine.Lost);
  let st = Engine.stats e in
  checki "2 requests" 2 st.Probe_stats.requests;
  checki "3 attempts each" 6 st.Probe_stats.issued;
  checki "all attempts lost" 6 st.Probe_stats.lost;
  checki "2 retries each" 4 st.Probe_stats.retried;
  checki "both requests failed" 2 st.Probe_stats.failed

let test_retry_recovers () =
  let m = euclidean_matrix 18 20 in
  let truth_issued_failed loss retries seed =
    let e = engine ~fault:{ Fault.default with Fault.loss; retries } ~seed m in
    for k = 0 to 99 do
      ignore (Engine.rtt e (k mod 19) ((k mod 3) + 17))
    done;
    let st = Engine.stats e in
    (st.Probe_stats.issued, st.Probe_stats.failed)
  in
  let _, failed_no_retry = truth_issued_failed 0.5 0 5 in
  let issued_retry, failed_retry = truth_issued_failed 0.5 3 5 in
  Alcotest.(check bool) "retries reduce failures" true
    (failed_retry < failed_no_retry);
  Alcotest.(check bool) "retries cost probes" true (issued_retry > 100)

let test_outage () =
  let m = euclidean_matrix 19 20 in
  let e = engine m in
  Fault.set_down (Engine.fault e) 4 true;
  Alcotest.(check bool) "probe to down node" true (Engine.probe e 1 4 = Engine.Down);
  Alcotest.(check bool) "probe from down node" true (Engine.probe e 4 1 = Engine.Down);
  Alcotest.(check bool) "others fine" true (not (Float.is_nan (Engine.rtt e 1 2)));
  Fault.set_down (Engine.fault e) 4 false;
  Alcotest.(check bool) "back up" true (not (Float.is_nan (Engine.rtt e 1 4)));
  checki "down requests counted" 2 (Engine.stats e).Probe_stats.down

(* Only the adaptive policy reads the loss estimate, so only an
   adaptive engine feeds it: a 50%-loss link probed through a fixed or
   backoff engine leaves the estimate at 0. *)
let test_loss_estimate_only_adaptive () =
  let m = euclidean_matrix 21 8 in
  let estimate policy =
    let e =
      engine ~fault:{ Fault.default with Fault.loss = 0.5; retries = 1; policy } m
    in
    for _ = 1 to 200 do
      ignore (Engine.rtt e 2 5)
    done;
    Fault.estimated_loss (Engine.fault e) 2 5
  in
  checkf "fixed keeps no estimate" 0. (estimate Fault.Fixed);
  checkf "backoff keeps no estimate" 0.
    (estimate (Fault.Backoff Fault.default_backoff));
  Alcotest.(check bool) "adaptive learns the loss" true
    (estimate (Fault.adaptive ()) > 0.3)

let test_set_down_range () =
  let f = Fault.create (Rng.create 3) ~n:8 in
  for i = 0 to 7 do
    Alcotest.(check bool) "starts up" false (Fault.node_down f i)
  done;
  Fault.set_down f 7 true;
  Fault.set_down f 0 true;
  Alcotest.(check (list int)) "down round-trips" [ 0; 7 ]
    (List.filter (Fault.node_down f) (List.init 8 Fun.id));
  Fault.set_down f 7 false;
  Alcotest.(check bool) "up again" false (Fault.node_down f 7);
  Alcotest.check_raises "past the end"
    (Invalid_argument "Fault.set_down: node 8 outside 0..7") (fun () ->
      Fault.set_down f 8 true);
  Alcotest.check_raises "negative"
    (Invalid_argument "Fault.set_down: node -1 outside 0..7") (fun () ->
      Fault.set_down f (-1) false)

(* ------------------------------------------------------------------ *)
(* Per-label accounting                                                *)

let test_label_accounting () =
  let m = euclidean_matrix 20 20 in
  let e = engine m in
  ignore (Engine.rtt ~label:"vivaldi" e 0 1);
  ignore (Engine.rtt ~label:"vivaldi" e 0 2);
  ignore (Engine.rtt ~label:"meridian" e 3 4);
  ignore (Engine.rtt e 5 6);
  let st = Engine.stats e in
  checki "vivaldi" 2 (Probe_stats.label_count st "vivaldi");
  checki "meridian" 1 (Probe_stats.label_count st "meridian");
  checki "unlabeled not attributed" 0 (Probe_stats.label_count st "other");
  checki "total issued" 4 st.Probe_stats.issued;
  Alcotest.(check (list (pair string int)))
    "labels sorted"
    [ ("meridian", 1); ("vivaldi", 2) ]
    (Probe_stats.labels st)

let test_stats_snapshot_independent () =
  let m = euclidean_matrix 21 20 in
  let e = engine m in
  ignore (Engine.rtt e 0 1);
  let snap = Engine.stats e in
  ignore (Engine.rtt e 0 2);
  checki "snapshot frozen" 1 snap.Probe_stats.issued;
  checki "live advanced" 2 (Engine.stats e).Probe_stats.issued

(* ------------------------------------------------------------------ *)
(* Degradation end-to-end: faults hurt Meridian where it matters       *)

let test_meridian_query_under_loss_degrades_gracefully () =
  let m = euclidean_matrix 22 80 in
  let rng = Rng.create 23 in
  let nodes = Rng.sample_indices rng ~n:80 ~k:40 in
  let overlay =
    Overlay.build (Rng.create 24) (Backend.dense m) Ring.default_config
      ~meridian_nodes:nodes
  in
  let e = engine ~fault:{ Fault.default with Fault.loss = 0.3 } ~seed:25 m in
  let targets =
    Array.to_list (Rng.permutation (Rng.create 26) 80)
    |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
  in
  (* No exception under loss; failed queries surface as nan. *)
  List.iter
    (fun target ->
      let o = Query.closest overlay e ~start:nodes.(0) ~target in
      Alcotest.(check bool) "probes counted" true (o.Query.probes >= 1))
    targets;
  Alcotest.(check bool) "some probes were lost" true
    ((Engine.stats e).Probe_stats.failed > 0)

let test_online_loss_inflates_simulator_time () =
  (* The same online query workload must take strictly more virtual
     time under 20% loss + jitter than against a lossless network:
     timeouts and retransmit backoff are charged to the simulator
     clock. *)
  let module Sim = Tivaware_eventsim.Sim in
  let module Online = Tivaware_meridian.Online in
  let m = euclidean_matrix 30 60 in
  let nodes = Rng.sample_indices (Rng.create 31) ~n:60 ~k:30 in
  let overlay =
    Overlay.build (Rng.create 32) (Backend.dense m) Ring.default_config
      ~meridian_nodes:nodes
  in
  let total_latency fault =
    let e = engine ~fault ~seed:33 m in
    let sim = Sim.create () in
    Online.attach sim e;
    let pick = Rng.create 34 in
    let acc = ref 0. in
    for _ = 1 to 40 do
      let client = Rng.int pick 60 in
      let start = nodes.(Rng.int pick (Array.length nodes)) in
      let target = Rng.int pick 60 in
      if not (Overlay.is_meridian overlay target) then begin
        let o = Online.closest sim overlay e ~client ~start ~target in
        acc := !acc +. o.Online.latency
      end
    done;
    (!acc, (Engine.stats e).Probe_stats.probe_ms)
  in
  let clean, clean_ms = total_latency Fault.default in
  let lossy, lossy_ms =
    total_latency
      {
        Fault.default with
        Fault.loss = 0.2;
        jitter = 0.1;
        retries = 2;
        policy = Fault.Backoff Fault.default_backoff;
      }
  in
  Alcotest.(check bool) "lossless probes still cost wire time" true
    (clean_ms > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "lossy total virtual time higher (%.0f vs %.0f ms)" lossy
       clean)
    true
    (lossy > clean);
  Alcotest.(check bool)
    (Printf.sprintf "lossy probe_ms higher (%.0f vs %.0f ms)" lossy_ms clean_ms)
    true
    (lossy_ms > clean_ms)

let test_adaptive_beats_fixed_retry_cost () =
  (* Under 20% loss, the adaptive policy must spend fewer wire attempts
     than always-retry-3 while keeping a comparable success rate.  The
     tolerance absorbs adaptive's warmup: until a prober's loss
     estimate rises from zero it grants no retries, so the first
     requests of each prober fail at the raw loss rate. *)
  let m = euclidean_matrix 35 40 in
  let run policy =
    let e =
      engine
        ~fault:{ Fault.default with Fault.loss = 0.2; retries = 3; policy }
        ~seed:36 m
    in
    let wl = Rng.create 37 in
    let requests = 3000 in
    for _ = 1 to requests do
      let i = Rng.int wl 40 in
      let j = (i + 1 + Rng.int wl 39) mod 40 in
      ignore (Engine.rtt e i j)
    done;
    let st = Engine.stats e in
    let success =
      float_of_int (requests - st.Probe_stats.failed) /. float_of_int requests
    in
    (st.Probe_stats.issued, success)
  in
  let fixed_issued, fixed_success = run Fault.Fixed in
  let adaptive_issued, adaptive_success =
    run (Fault.adaptive ~target_failure:0.01 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive issues fewer attempts (%d vs %d)" adaptive_issued
       fixed_issued)
    true
    (adaptive_issued < fixed_issued);
  Alcotest.(check bool)
    (Printf.sprintf "success comparable (%.3f vs %.3f)" adaptive_success
       fixed_success)
    true
    (adaptive_success >= fixed_success -. 0.04)

(* ------------------------------------------------------------------ *)
(* Config validation                                                   *)

let test_config_validation_messages () =
  let m = euclidean_matrix 38 10 in
  let expect msg config =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Engine.of_matrix ~config m))
  in
  expect
    "Engine.create: cache_ttl must be positive (got -3; omit the cache \
     instead of disabling it with a non-positive TTL)"
    { Engine.default_config with Engine.cache_ttl = Some (-3.) };
  expect "Engine.create: cache_capacity must be >= 1 (got 0)"
    { Engine.default_config with Engine.cache_ttl = Some 5.; cache_capacity = Some 0 };
  expect
    "Engine.create: cache_capacity requires cache_ttl (there is no cache to \
     bound)"
    { Engine.default_config with Engine.cache_capacity = Some 8 };
  Alcotest.(check bool) "zero-capacity budget rejected" true
    (match
       Engine.of_matrix
         ~config:
           {
             Engine.default_config with
             Engine.budget = Some (Budget.per_node ~capacity:0. ~rate:1.);
           }
         m
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "loss above 1 rejected" true
    (match
       Engine.of_matrix
         ~config:
           {
             Engine.default_config with
             Engine.fault = { Fault.default with Fault.loss = 2. };
           }
         m
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Churn clock                                                         *)

(* Reference churn clock: every advance steps every churning node, and
   every sync writes every churning node into the injector.  The heap
   clock must agree with it after any monotone sequence of drives. *)
module Scan_churn = struct
  type node = { rng : Rng.t; mutable up : bool; mutable next : float }

  type t = {
    config : Churn.config;
    nodes : node option array;
    mutable time : float;
    mutable transitions : int;
  }

  let create (config : Churn.config) ~n =
    let node_of i =
      let rng = Rng.create ((config.Churn.seed * 2_000_029) + i) in
      if Rng.float rng 1. < config.Churn.fraction then
        Some
          {
            rng;
            up = true;
            next = Rng.exponential rng ~rate:(1. /. config.Churn.mean_up);
          }
      else None
    in
    { config; nodes = Array.init n node_of; time = 0.; transitions = 0 }

  let advance_to t time =
    if time > t.time then begin
      Array.iter
        (function
          | None -> ()
          | Some st ->
            while st.next <= time do
              st.up <- not st.up;
              t.transitions <- t.transitions + 1;
              let mean =
                if st.up then t.config.Churn.mean_up else t.config.Churn.mean_down
              in
              st.next <- st.next +. Rng.exponential st.rng ~rate:(1. /. mean)
            done)
        t.nodes;
      t.time <- time
    end

  let sync t fault =
    Array.iteri
      (fun i -> Option.iter (fun st -> Fault.set_down fault i (not st.up)))
      t.nodes
end

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

type churn_case = {
  n : int;
  churn : Churn.config;
  outage : float;
  fault_seed : int;
  times : float list;  (* monotone drive times after the initial 0 *)
}

let print_churn_case c =
  Printf.sprintf
    "n=%d fraction=%g mean_up=%g mean_down=%g seed=%d outage=%g fault_seed=%d \
     times=[%s]"
    c.n c.churn.Churn.fraction c.churn.Churn.mean_up c.churn.Churn.mean_down
    c.churn.Churn.seed c.outage c.fault_seed
    (String.concat "; " (List.map (Printf.sprintf "%h") c.times))

let gen_churn_case =
  let open QCheck2.Gen in
  let log_uniform lo hi =
    map (fun u -> exp (log lo +. (u *. (log hi -. log lo)))) (float_range 0. 1.)
  in
  let* n = int_range 1 200 in
  let* fraction =
    frequency [ (1, pure 0.); (1, pure 1.); (4, float_range 0. 1.) ]
  in
  let* mean_up = log_uniform 0.01 100. in
  let* mean_down = log_uniform 0.01 100. in
  let* seed = int_range 0 1_000_000 in
  let* outage = frequency [ (1, pure 0.); (1, float_range 0. 0.5) ] in
  let* fault_seed = int_range 0 1_000_000 in
  let lifetime = Float.max mean_up mean_down in
  let step =
    frequency
      [
        (3, pure 0.);
        (3, log_uniform 1e-9 1e-3);
        (4, map (fun u -> u *. lifetime) (float_range 0. 3.));
        (1, map (fun k -> k *. lifetime) (float_range 100. 150.));
      ]
  in
  let* steps = list_size (int_range 1 12) step in
  let times =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) dt -> (t +. dt, (t +. dt) :: acc))
            (0., []) steps))
  in
  pure
    {
      n;
      churn = { Churn.fraction; mean_up; mean_down; seed };
      outage;
      fault_seed;
      times;
    }

let heap_clock_matches_scan c =
  let fault_config = { Fault.default with Fault.outage = c.outage } in
  let fault () =
    Fault.create ~config:fault_config (Rng.create c.fault_seed) ~n:c.n
  in
  let drawn = fault () and heap_fault = fault () and scan_fault = fault () in
  let heap = Churn.create ~config:c.churn ~n:c.n () in
  let scan = Scan_churn.create c.churn ~n:c.n in
  let check time =
    Churn.drive heap heap_fault ~time;
    Scan_churn.advance_to scan time;
    Scan_churn.sync scan scan_fault;
    if Churn.transitions heap <> scan.Scan_churn.transitions then
      QCheck2.Test.fail_reportf "t=%h: transitions %d, scan %d" time
        (Churn.transitions heap) scan.Scan_churn.transitions;
    for i = 0 to c.n - 1 do
      let churning, up =
        match scan.Scan_churn.nodes.(i) with
        | Some st -> (true, st.Scan_churn.up)
        | None -> (false, true)
      in
      if Churn.churning heap i <> churning || Churn.is_up heap i <> up then
        QCheck2.Test.fail_reportf "t=%h node %d: up=%b, scan up=%b" time i
          (Churn.is_up heap i) up;
      let expect = if churning then not up else Fault.node_down drawn i in
      if
        Fault.node_down heap_fault i <> expect
        || Fault.node_down scan_fault i <> expect
      then
        QCheck2.Test.fail_reportf
          "t=%h node %d: node_down=%b, scan %b, expected %b" time i
          (Fault.node_down heap_fault i)
          (Fault.node_down scan_fault i)
          expect
    done
  in
  (* Time 0 is the engine's initial drive: it mirrors the fresh state. *)
  List.iter check (0. :: c.times);
  true

let test_churn_heap_matches_scan =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| prop_seed |])
    (QCheck2.Test.make ~count:80 ~name:"heap churn clock = scan clock"
       ~print:print_churn_case gen_churn_case heap_clock_matches_scan)

(* A negative or non-finite step and a nan time are rejected, naming
   the argument, and leave the clock where it was: once nan, the clock
   could never move again. *)
let test_clock_rejects_non_finite () =
  let e = engine (euclidean_matrix 60 6) in
  Engine.advance e 1.;
  List.iter
    (fun (dt, shown) ->
      Alcotest.check_raises
        (Printf.sprintf "advance %s" shown)
        (Invalid_argument
           (Printf.sprintf "Engine.advance: dt must be finite and >= 0 (got %s)"
              shown))
        (fun () -> Engine.advance e dt))
    [ (nan, "nan"); (infinity, "inf"); (-1., "-1") ];
  Alcotest.check_raises "advance_to nan"
    (Invalid_argument "Engine.advance_to: time is nan") (fun () ->
      Engine.advance_to e nan);
  checkf "clock untouched" 1. (Engine.now e);
  Engine.advance e 10.;
  checkf "advance still moves the clock" 11. (Engine.now e);
  Engine.advance_to e 20.;
  checkf "advance_to still moves the clock" 20. (Engine.now e)

let () =
  Alcotest.run "measure"
    [
      ( "oracle",
        [
          Alcotest.test_case "matrix backed" `Quick test_oracle_matrix;
          Alcotest.test_case "function backed" `Quick test_oracle_fn;
        ] );
      ( "oracle-mode",
        [
          Alcotest.test_case "default engine = matrix" `Quick
            test_default_engine_is_oracle;
          Alcotest.test_case "vivaldi identical through engine" `Quick
            test_vivaldi_engine_path_identical;
          Alcotest.test_case "meridian identical through engine" `Quick
            test_meridian_engine_path_identical;
        ] );
      ( "cache",
        [
          Alcotest.test_case "ttl expiry accounting" `Quick test_cache_ttl_expiry;
          Alcotest.test_case "unit semantics" `Quick test_cache_unit;
          Alcotest.test_case "lru capacity eviction" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "find_code out-param path" `Quick
            test_cache_find_code;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "strict per-plane shares" `Quick
            test_arbiter_shares;
          Alcotest.test_case "config validation" `Quick
            test_arbiter_validation;
        ] );
      ( "budget",
        [
          Alcotest.test_case "exhaustion => caller fallback" `Quick
            test_budget_exhaustion_fallback;
          Alcotest.test_case "global bucket" `Quick test_budget_global_limit;
          Alcotest.test_case "starved vivaldi still runs" `Quick
            test_budget_vivaldi_fallback;
        ] );
      ( "faults",
        [
          Alcotest.test_case "seeded jitter determinism" `Quick
            test_jitter_determinism;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds_and_bias;
          Alcotest.test_case "loss-retry accounting" `Quick
            test_loss_retry_accounting;
          Alcotest.test_case "retries recover" `Quick test_retry_recovers;
          Alcotest.test_case "outages" `Quick test_outage;
          Alcotest.test_case "loss estimate only under adaptive" `Quick
            test_loss_estimate_only_adaptive;
          Alcotest.test_case "set_down range" `Quick test_set_down_range;
          Alcotest.test_case "attempt_into = attempt draw for draw" `Quick
            test_fault_attempt_into_equivalence;
          Alcotest.test_case "attempt_into out-param reuse" `Quick
            test_fault_attempt_into_reuse;
        ] );
      ("churn", [ test_churn_heap_matches_scan ]);
      ( "accounting",
        [
          Alcotest.test_case "per-label counters" `Quick test_label_accounting;
          Alcotest.test_case "snapshot independence" `Quick
            test_stats_snapshot_independent;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "meridian under loss" `Quick
            test_meridian_query_under_loss_degrades_gracefully;
          Alcotest.test_case "loss inflates simulator time" `Quick
            test_online_loss_inflates_simulator_time;
          Alcotest.test_case "adaptive beats fixed retry" `Quick
            test_adaptive_beats_fixed_retry_cost;
        ] );
      ( "validation",
        [
          Alcotest.test_case "config messages" `Quick
            test_config_validation_messages;
          Alcotest.test_case "clock rejects non-finite" `Quick
            test_clock_rejects_non_finite;
        ] );
    ]
