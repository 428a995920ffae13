(* Property-test harness for the measurement plane.

   Every test draws random configs and random matrices from a
   generator seeded by TIVAWARE_PROP_SEED (default 0), so the whole
   suite can be re-run under distinct seeds (the CI matrix runs three)
   while any failure stays exactly reproducible. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Budget = Tivaware_measure.Budget
module Cache = Tivaware_measure.Cache
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Engine = Tivaware_measure.Engine
module Oracle = Tivaware_measure.Oracle
module Probe_stats = Tivaware_measure.Probe_stats
module Sim = Tivaware_eventsim.Sim
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Online = Tivaware_meridian.Online
module Selectors = Tivaware_core.Selectors
module System = Tivaware_vivaldi.System
module Severity = Tivaware_tiv.Severity
module Eval = Tivaware_tiv.Eval
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Multicast = Tivaware_overlay.Multicast
module Backend = Tivaware_backend.Delay_backend
module Obs = Tivaware_obs

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

(* Per-test generator: independent of test execution order, offset by
   the test's own salt so tests do not share streams. *)
let rng salt = Rng.create ((prop_seed * 1_000_003) + salt)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let random_matrix ?(missing = 0.) rng ~n =
  let m = Euclidean.uniform_box rng ~n ~dim:3 ~side_ms:300. in
  if missing > 0. then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Rng.bernoulli rng missing then Matrix.set m i j nan
      done
    done;
  m

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let random_pair rng n =
  let i = Rng.int rng n in
  let j = (i + 1 + Rng.int rng (n - 1)) mod n in
  (i, j)

(* ------------------------------------------------------------------ *)
(* Cache invariants                                                    *)

(* Model-checked random op sequence: the cache never serves a value
   older than its TTL, and never serves a value other than the last
   stored one for the key. *)
let test_cache_never_stale () =
  let g = rng 1 in
  for _ = 1 to 50 do
    let ttl = Rng.uniform g 0.5 20. in
    let capacity = if Rng.bool g then Some (1 + Rng.int g 8) else None in
    let c = Cache.create ?capacity ~ttl () in
    let model = Hashtbl.create 16 in
    let now = ref 0. in
    for _ = 1 to 200 do
      now := !now +. Rng.uniform g 0. (ttl /. 2.);
      let i = Rng.int g 6 and j = Rng.int g 6 in
      if i <> j then begin
        let key = if i < j then (i, j) else (j, i) in
        if Rng.bool g then begin
          let v = Rng.uniform g 1. 500. in
          ignore (Cache.store c ~now:!now i j v);
          Hashtbl.replace model key (v, !now)
        end
        else begin
          match Cache.find c ~now:!now i j with
          | Cache.Hit v ->
            let mv, mt = Hashtbl.find model key in
            checkb "hit within ttl" true (!now -. mt <= ttl);
            Alcotest.(check (float 0.)) "hit serves last stored value" mv v
          | Cache.Stale -> (
            match Hashtbl.find_opt model key with
            | Some (_, mt) -> checkb "stale only past ttl" true (!now -. mt > ttl)
            | None -> Alcotest.fail "stale entry never stored")
          | Cache.Miss -> ()
        end
      end
    done
  done

let test_cache_capacity_never_exceeded () =
  let g = rng 2 in
  for _ = 1 to 50 do
    let capacity = 1 + Rng.int g 10 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    for _ = 1 to 300 do
      let i, j = random_pair g 12 in
      ignore (Cache.store c ~now:0. i j (Rng.uniform g 1. 100.));
      checkb "length <= capacity" true (Cache.length c <= capacity)
    done
  done

(* With an effectively infinite TTL the only way entries leave is LRU
   eviction, so inserts of non-resident keys = live entries + evictions
   (a key may cycle in and out any number of times). *)
let test_cache_eviction_counter_identity () =
  let g = rng 3 in
  for _ = 1 to 50 do
    let capacity = 1 + Rng.int g 6 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    let inserts = ref 0 in
    let reported = ref 0 in
    for _ = 1 to 200 do
      let i, j = random_pair g 10 in
      if Cache.find c ~now:0. i j = Cache.Miss then incr inserts;
      reported := !reported + Cache.store c ~now:0. i j 1.
    done;
    checki "inserts = length + evictions" !inserts
      (Cache.length c + Cache.evictions c);
    checki "store return values sum to evictions" (Cache.evictions c) !reported
  done

(* The key evicted by a capacity overflow is always the one whose last
   use (store or hit) is oldest. *)
let test_cache_evicts_lru_key () =
  let g = rng 4 in
  for _ = 1 to 50 do
    let capacity = 2 + Rng.int g 4 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    (* recency model: most recent first *)
    let order = ref [] in
    let use key = order := key :: List.filter (( <> ) key) !order in
    for _ = 1 to 150 do
      let i, j = random_pair g 10 in
      let key = (min i j, max i j) in
      if Rng.bool g then begin
        let resident = List.mem key !order in
        let evicted = Cache.store c ~now:0. i j 1. in
        use key;
        if (not resident) && List.length !order > capacity then begin
          checki "overflow evicts exactly one" 1 evicted;
          (* Drop the model's least recent key; it must now miss. *)
          let lru = List.nth !order (List.length !order - 1) in
          order := List.filter (( <> ) lru) !order;
          checkb "lru key misses after eviction" true
            (Cache.find c ~now:0. (fst lru) (snd lru) = Cache.Miss)
        end
        else checki "no eviction otherwise" 0 evicted
      end
      else begin
        match Cache.find c ~now:0. i j with
        | Cache.Hit _ -> use key
        | Cache.Stale | Cache.Miss -> ()
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Budget invariants                                                   *)

let test_budget_denied_consumes_nothing () =
  let g = rng 5 in
  for _ = 1 to 50 do
    let capacity = 1. +. float_of_int (Rng.int g 5) in
    let b =
      Budget.create (Budget.per_node ~capacity ~rate:(Rng.uniform g 0. 2.)) ~n:4
    in
    let now = ref 0. in
    for _ = 1 to 100 do
      now := !now +. Rng.uniform g 0. 0.5;
      let node = Rng.int g 4 in
      let before = Budget.tokens b ~now:!now node in
      let admitted = Budget.try_take b ~now:!now node in
      let after = Budget.tokens b ~now:!now node in
      if admitted then
        checkb "admitted takes one token" true (after <= before -. 1. +. 1e-9)
      else begin
        checkb "denied only when short" true (before < 1.);
        Alcotest.(check (float 1e-9)) "denied leaves tokens" before after
      end
    done
  done

(* Engine level: with a rate-0 bucket of capacity C a node can never
   issue more than C wire attempts; everything beyond is denied and
   consumes nothing (the global bucket stays untouched by denials). *)
let test_engine_budget_conservation () =
  let g = rng 6 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let cap = 1 + Rng.int g 5 in
    let config =
      {
        Engine.default_config with
        Engine.budget =
          Some (Budget.per_node ~capacity:(float_of_int cap) ~rate:0.);
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let requests = (2 * cap) + Rng.int g 20 in
    for _ = 1 to requests do
      ignore (Engine.rtt e 0 (1 + Rng.int g (n - 1)))
    done;
    let st = Engine.stats e in
    checki "issues bounded by capacity" cap st.Probe_stats.issued;
    checki "excess denied" (requests - cap) st.Probe_stats.denied
  done

(* ------------------------------------------------------------------ *)
(* Engine accounting identities                                        *)

(* Under a random fault config (no budget), every issued attempt is
   delivered, lost or unmeasured — and outcome counts tie exactly to
   the request counts observed by the caller. *)
let test_engine_attempt_accounting () =
  let g = rng 7 in
  for _ = 1 to 25 do
    let n = 10 + Rng.int g 10 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.3) g ~n in
    let retries = Rng.int g 4 in
    let policy =
      match Rng.int g 3 with
      | 0 -> Fault.Fixed
      | 1 -> Fault.Backoff Fault.default_backoff
      | _ -> Fault.adaptive ~target_failure:0.05 ()
    in
    let fault =
      { Fault.default with Fault.loss = Rng.uniform g 0. 0.5; retries; policy }
    in
    let config =
      { Engine.default_config with Engine.fault; seed = Rng.int g 10_000 }
    in
    let e = Engine.of_matrix ~config m in
    let delivered = ref 0 and failed = ref 0 and unmeasured = ref 0 in
    let requests = 200 in
    for _ = 1 to requests do
      let i, j = random_pair g n in
      match Engine.probe e i j with
      | Engine.Rtt _ -> incr delivered
      | Engine.Lost -> incr failed
      | Engine.Unmeasured -> incr unmeasured
      | Engine.Cached _ | Engine.Denied | Engine.Down -> ()
    done;
    let st = Engine.stats e in
    checki "requests counted" requests st.Probe_stats.requests;
    checki "issued = delivered + lost + unmeasured"
      st.Probe_stats.issued
      (!delivered + st.Probe_stats.lost + st.Probe_stats.unmeasured);
    checki "failed outcomes" !failed st.Probe_stats.failed;
    checki "unmeasured outcomes" !unmeasured st.Probe_stats.unmeasured;
    checkb "attempts bounded by retry cap" true
      (st.Probe_stats.issued <= requests * (retries + 1));
    checki "retried = issued - first attempts" st.Probe_stats.retried
      (st.Probe_stats.issued - (!delivered + !failed + !unmeasured))
  done

(* With a cache every request resolves to exactly one of hit, miss or
   stale. *)
let test_engine_cache_accounting () =
  let g = rng 8 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let ttl = Rng.uniform g 1. 30. in
    let config =
      {
        Engine.default_config with
        Engine.cache_ttl = Some ttl;
        cache_capacity = (if Rng.bool g then Some (1 + Rng.int g 20) else None);
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let requests = 300 in
    for _ = 1 to requests do
      if Rng.bernoulli g 0.2 then Engine.advance e (Rng.uniform g 0. ttl);
      let i, j = random_pair g n in
      ignore (Engine.rtt e i j)
    done;
    let st = Engine.stats e in
    checki "hits + misses + stale = requests" requests
      (st.Probe_stats.hits + st.Probe_stats.misses + st.Probe_stats.stale);
    checki "every non-hit issued once" st.Probe_stats.issued
      (st.Probe_stats.misses + st.Probe_stats.stale)
  done

(* When probes cannot fail, the adaptive policy must collapse to one
   attempt per uncached request. *)
let test_engine_no_loss_single_attempt () =
  let g = rng 9 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let policy =
      if Rng.bool g then Fault.adaptive ()
      else Fault.Backoff Fault.default_backoff
    in
    let fault = { Fault.default with Fault.retries = 1 + Rng.int g 4; policy } in
    let config =
      { Engine.default_config with Engine.fault; seed = Rng.int g 10_000 }
    in
    let e = Engine.of_matrix ~config m in
    let requests = 100 in
    for _ = 1 to requests do
      let i, j = random_pair g n in
      ignore (Engine.rtt e i j)
    done;
    let st = Engine.stats e in
    checki "one attempt per request" requests st.Probe_stats.issued;
    checki "no retries without loss" 0 st.Probe_stats.retried
  done

(* ------------------------------------------------------------------ *)
(* Oracle-mode equivalence                                              *)

let test_default_engine_equals_oracle () =
  let g = rng 10 in
  for _ = 1 to 10 do
    let n = 10 + Rng.int g 30 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.4) g ~n in
    let e = Engine.of_matrix m in
    for _ = 1 to 100 do
      let i = Rng.int g n and j = Rng.int g n in
      let truth = Matrix.get m i j and probed = Engine.rtt e i j in
      if Float.is_nan truth then checkb "missing stays nan" true (Float.is_nan probed)
      else Alcotest.(check (float 0.)) "rtt bit-identical" truth probed
    done;
    checkb "clock untouched" true (Engine.now e = 0.);
    checki "no probe_ms magic" 0
      (int_of_float (Engine.stats e).Probe_stats.probe_ms
      - int_of_float (Engine.stats e).Probe_stats.probe_ms)
  done

(* The online (event-sim) query depends only on the delay answers: a
   matrix engine and an attached engine over a function-backed view of
   the same matrix give the same answer, probes and virtual latency. *)
let test_online_engine_equals_matrix () =
  let g = rng 11 in
  for _ = 1 to 10 do
    let n = 30 + Rng.int g 30 in
    let m = random_matrix g ~n in
    let nodes = Rng.sample_indices g ~n ~k:(n / 2) in
    let overlay =
      Overlay.build (Rng.create (Rng.int g 10_000)) (Backend.dense m) Ring.default_config
        ~meridian_nodes:nodes
    in
    let is_meridian i = Overlay.is_meridian overlay i in
    let target = ref (Rng.int g n) in
    while is_meridian !target do
      target := Rng.int g n
    done;
    let client = Rng.int g n and start = nodes.(0) in
    let a =
      Online.closest (Sim.create ()) overlay (Engine.of_matrix m) ~client ~start
        ~target:!target
    in
    let sim = Sim.create () in
    let e = Backend.engine (Backend.of_fn ~size:n (Matrix.get m)) in
    Online.attach sim e;
    let b = Online.closest sim overlay e ~client ~start ~target:!target in
    checki "same chosen" a.Online.query.Query.chosen b.Online.query.Query.chosen;
    checki "same probes" a.Online.query.Query.probes b.Online.query.Query.probes;
    checki "same hops" a.Online.query.Query.hops b.Online.query.Query.hops;
    Alcotest.(check (float 1e-9))
      "same virtual latency" a.Online.latency b.Online.latency
  done

(* ------------------------------------------------------------------ *)
(* Time accounting                                                      *)

(* charge_time: the engine clock is exactly the charged probe time (in
   seconds), and it never goes backwards. *)
let test_clock_tracks_probe_cost () =
  let g = rng 12 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix ~missing:0.1 g ~n in
    let fault =
      {
        Fault.default with
        Fault.loss = Rng.uniform g 0. 0.4;
        jitter = Rng.uniform g 0. 0.3;
        retries = Rng.int g 3;
        policy = Fault.Backoff Fault.default_backoff;
      }
    in
    let config =
      {
        Engine.default_config with
        Engine.fault;
        charge_time = true;
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let last = ref 0. in
    for _ = 1 to 100 do
      let i, j = random_pair g n in
      let { Engine.cost; _ } = Engine.probe_timed e i j in
      checkb "cost non-negative" true (cost >= 0.);
      checkb "clock monotone" true (Engine.now e >= !last);
      last := Engine.now e
    done;
    Alcotest.(check (float 1e-6))
      "clock = charged probe time"
      ((Engine.stats e).Probe_stats.probe_ms /. 1000.)
      (Engine.now e)
  done

(* Delivered samples stay inside the multiplicative jitter band. *)
let test_jitter_band () =
  let g = rng 13 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let jitter = Rng.uniform g 0.01 0.5 in
    let config =
      {
        Engine.default_config with
        Engine.fault = { Fault.default with Fault.jitter };
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    for _ = 1 to 100 do
      let i, j = random_pair g n in
      let truth = Matrix.get m i j in
      match Engine.probe e i j with
      | Engine.Rtt sample ->
        checkb "sample within band" true
          (sample >= truth *. (1. -. jitter) -. 1e-9
          && sample <= truth *. (1. +. jitter) +. 1e-9)
      | _ -> Alcotest.fail "no faults: probe must deliver"
    done
  done

(* Backoff delays grow geometrically and respect the delay-jitter
   band. *)
let test_backoff_delay_schedule () =
  let g = rng 14 in
  for _ = 1 to 50 do
    let base = Rng.uniform g 1. 200. in
    let factor = Rng.uniform g 1. 4. in
    let delay_jitter = if Rng.bool g then 0. else Rng.uniform g 0.01 0.5 in
    let b = { Fault.base; factor; delay_jitter } in
    let config = { Fault.default with Fault.policy = Fault.Backoff b } in
    let f = Fault.create ~config (Rng.create (Rng.int g 10_000)) ~n:4 in
    for attempt = 1 to 6 do
      let expected = base *. (factor ** float_of_int (attempt - 1)) in
      let d = Fault.backoff_delay f ~attempt in
      if delay_jitter = 0. then
        Alcotest.(check (float 1e-9)) "exact geometric delay" expected d
      else
        checkb "jittered delay within band" true
          (d >= expected *. (1. -. delay_jitter) -. 1e-9
          && d <= expected *. (1. +. delay_jitter) +. 1e-9)
    done;
    checkb "no delay before first attempt" true
      (Fault.backoff_delay f ~attempt:0 = 0.)
  done

(* Adaptive retry budgets shrink with the loss estimate and never
   exceed the configured cap. *)
let test_adaptive_retry_budget_bounds () =
  let g = rng 15 in
  for _ = 1 to 50 do
    let retries = 1 + Rng.int g 5 in
    let target_failure = Rng.uniform g 0.001 0.2 in
    let config =
      {
        Fault.default with
        Fault.retries;
        policy = Fault.adaptive ~target_failure ();
      }
    in
    let f = Fault.create ~config (Rng.create 1) ~n:3 in
    checki "fresh link needs no retries" 0 (Fault.retry_budget f 0 1);
    (* Drive the link's loss estimate up with observed losses. *)
    let prev = ref 0 in
    for _ = 1 to 60 do
      Fault.record_outcome f 0 1 ~lost:true;
      let b = Fault.retry_budget f 0 1 in
      checkb "budget within cap" true (b >= 0 && b <= retries);
      checkb "budget non-decreasing as loss grows" true (b >= !prev);
      prev := b
    done;
    checkb "high loss earns retries" true (!prev >= 1);
    (* A cold sibling link inherits the prober's aggregate experience;
       a different prober's links are untouched. *)
    checkb "cold sibling inherits prober estimate" true
      (Fault.retry_budget f 0 2 >= 1);
    checki "other prober unaffected" 0 (Fault.retry_budget f 1 0);
    (* And back down with successes. *)
    for _ = 1 to 200 do
      Fault.record_outcome f 0 1 ~lost:false
    done;
    checki "recovered link needs none again" 0 (Fault.retry_budget f 0 1)
  done

(* ------------------------------------------------------------------ *)
(* Per-link profiles                                                    *)

let zero_profile = Profile.uniform ~name:"zero" Profile.clean

(* An all-zero per-link profile is the oracle, on every protocol layer:
   the profile machinery must add no RNG draws, no costs and no state,
   so each protocol's run is structurally identical with and without
   it. *)
let test_zero_fault_profile_equals_oracle_protocols () =
  let g = rng 17 in
  let n = 40 in
  let m = random_matrix g ~n in
  let mk profile =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.profile; seed = Rng.int g 10_000 }
      m
  in
  (* Vivaldi: bit-identical final coordinates. *)
  let coords profile =
    let sys =
      Selectors.embed_vivaldi_engine ~rounds:40 (Rng.create 21) (mk profile)
    in
    Array.init n (fun i -> (System.coord sys i, System.error_estimate sys i))
  in
  checkb "vivaldi coordinates bit-identical" true
    (coords None = coords (Some zero_profile));
  (* Meridian: identical query traces (chosen, delay, probes, hops,
     path). *)
  let nodes = Rng.sample_indices (Rng.create 23) ~n ~k:15 in
  let overlay =
    Selectors.meridian_build m (Ring.unlimited_config n) (Rng.create 25) nodes
  in
  let meridian_trace profile =
    let e = mk profile in
    let pick = Rng.create 27 in
    List.init 25 (fun _ ->
        let start = nodes.(Rng.int pick (Array.length nodes)) in
        let target = Rng.int pick n in
        if Array.mem target nodes then None
        else Some (Query.closest overlay e ~start ~target))
  in
  checkb "meridian traces identical" true
    (meridian_trace None = meridian_trace (Some zero_profile));
  (* TIV alert: identical accuracy/recall sweep. *)
  let system = Selectors.embed_vivaldi (Rng.create 29) m in
  let severity = Severity.all m in
  let alert_points profile =
    Eval.evaluate_engine ~engine:(mk profile)
      ~predicted:(fun i j -> System.predicted system i j)
      ~severity ~worst_fraction:0.1 ~thresholds:Eval.default_thresholds
  in
  checkb "alert sweep identical" true
    (alert_points None = alert_points (Some zero_profile));
  (* Chord PNS: identical fingers, hence identical lookups. *)
  let dht_digest profile =
    let e = mk profile in
    let overlay =
      Chord.build ~candidates:6 ~predict:(Engine.rtt ~label:"dht" e) n
    in
    let r = Rng.create 31 in
    List.init 40 (fun _ ->
        let l =
          Chord.lookup overlay (Backend.dense m) ~source:(Rng.int r n)
            ~key:(Rng.int r Id_space.modulus)
        in
        (l.Chord.hops, l.Chord.latency))
  in
  checkb "dht lookups identical" true
    (dht_digest None = dht_digest (Some zero_profile));
  (* Overlay multicast: identical tree metrics and refresh switches. *)
  let multicast_digest profile =
    let e = mk profile in
    let join_order = Rng.permutation (Rng.create 33) n in
    let t = Multicast.build ~config:Multicast.default_config e ~join_order in
    let switches = Multicast.refresh t (Rng.create 35) e in
    (Multicast.evaluate t e, switches)
  in
  checkb "multicast tree identical" true
    (multicast_digest None = multicast_digest (Some zero_profile))

(* A uniform profile built from the global rates reproduces the
   historical global fault model probe for probe: same outcomes, same
   costs, same counters, same clock — under the same seed, for any
   config. *)
let test_uniform_profile_matches_global_model () =
  let g = rng 18 in
  for _ = 1 to 15 do
    let n = 10 + Rng.int g 10 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.2) g ~n in
    let loss = Rng.uniform g 0. 0.5 in
    let jitter = Rng.uniform g 0. 0.4 in
    let outage = Rng.uniform g 0. 0.2 in
    let retries = Rng.int g 3 in
    let policy =
      match Rng.int g 3 with
      | 0 -> Fault.Fixed
      | 1 -> Fault.Backoff { Fault.default_backoff with Fault.delay_jitter = 0.1 }
      | _ -> Fault.adaptive ~target_failure:0.05 ()
    in
    let fault =
      { Fault.default with Fault.loss; jitter; outage; retries; policy }
    in
    let seed = Rng.int g 100_000 in
    let mk profile =
      Engine.of_matrix
        ~config:
          {
            Engine.default_config with
            Engine.fault;
            profile;
            charge_time = true;
            seed;
          }
        m
    in
    let a = mk None and b = mk (Some (Profile.of_rates ~loss ~jitter)) in
    let wl_seed = Rng.int g 100_000 in
    let replay e =
      let wl = Rng.create wl_seed in
      List.init 300 (fun _ ->
          let i, j = random_pair wl n in
          Engine.probe_timed e i j)
    in
    let ta = replay a and tb = replay b in
    List.iter2
      (fun (x : Engine.timed) (y : Engine.timed) ->
        checkb "outcome identical" true (x.Engine.outcome = y.Engine.outcome);
        Alcotest.(check (float 0.)) "cost identical" x.Engine.cost y.Engine.cost)
      ta tb;
    let sa = Engine.stats a and sb = Engine.stats b in
    checki "issued identical" sa.Probe_stats.issued sb.Probe_stats.issued;
    checki "lost identical" sa.Probe_stats.lost sb.Probe_stats.lost;
    checki "retried identical" sa.Probe_stats.retried sb.Probe_stats.retried;
    checki "down identical" sa.Probe_stats.down sb.Probe_stats.down;
    Alcotest.(check (float 0.))
      "probe_ms identical" sa.Probe_stats.probe_ms sb.Probe_stats.probe_ms;
    Alcotest.(check (float 0.)) "clock identical" (Engine.now a) (Engine.now b)
  done

(* The per-link loss estimator converges to each link's configured rate
   (time-averaged over the EWMA's stationary noise), and keeps links of
   the same prober apart. *)
let test_per_link_estimate_converges () =
  let g = rng 19 in
  for _ = 1 to 10 do
    let f = Fault.create (Rng.create (Rng.int g 10_000)) ~n:6 in
    List.iter
      (fun (i, j) ->
        let rate = Rng.uniform g 0.05 0.9 in
        let sum = ref 0. and count = ref 0 in
        for k = 1 to 3000 do
          Fault.record_outcome f i j ~lost:(Rng.bernoulli g rate);
          if k > 500 then begin
            sum := !sum +. Fault.estimated_loss f i j;
            incr count
          end
        done;
        let avg = !sum /. float_of_int !count in
        checkb
          (Printf.sprintf "estimate tracks configured rate (%.3f vs %.3f)" avg
             rate)
          true
          (abs_float (avg -. rate) < 0.08))
      [ (0, 1); (0, 2); (3, 4) ]
  done;
  (* Discrimination: a prober with one lossy and one clean link keeps
     their estimates apart even though both feed its node aggregate. *)
  let f = Fault.create (Rng.create 1) ~n:4 in
  for _ = 1 to 500 do
    Fault.record_outcome f 0 1 ~lost:true;
    Fault.record_outcome f 0 2 ~lost:false
  done;
  checkb "lossy link estimated high" true (Fault.estimated_loss f 0 1 > 0.9);
  checkb "clean sibling estimated low" true (Fault.estimated_loss f 0 2 < 0.1)

(* A [Profile.make] link is checked as it is drawn: the engine builds,
   clean links of the profile probe normally, and the first probe of
   the bad link raises an error naming the link and the field. *)
let test_profile_validation_names_link () =
  let g = rng 20 in
  let m = random_matrix g ~n:6 in
  let engine ?dynamics bad_link =
    (* Only link 2->3 is malformed. *)
    let profile =
      Profile.make "bad" (fun i j ->
          if i = 2 && j = 3 then bad_link else Profile.clean)
    in
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.profile = Some profile; dynamics }
      m
  in
  let expect_bad ?dynamics ~field bad_link =
    let e = engine ?dynamics bad_link in
    (match Engine.probe e 0 1 with
    | Engine.Rtt _ -> ()
    | _ -> Alcotest.failf "clean link 0->1 of a bad %s profile not measured" field);
    match Engine.probe e 2 3 with
    | _ -> Alcotest.failf "bad %s accepted" field
    | exception Invalid_argument msg ->
      checkb (Printf.sprintf "%s error names the link (%s)" field msg) true
        (contains msg "2->3");
      checkb (Printf.sprintf "%s error names the field (%s)" field msg) true
        (contains msg field)
  in
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = 1.5 };
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = -0.1 };
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = Float.nan };
  expect_bad ~field:"jitter" { Profile.clean with Profile.jitter = 1. };
  expect_bad ~field:"jitter" { Profile.clean with Profile.jitter = Float.nan };
  expect_bad ~field:"outage" { Profile.clean with Profile.outage = 2. };
  expect_bad ~field:"outage" { Profile.clean with Profile.outage = -1. };
  expect_bad ~field:"extra_delay" { Profile.clean with Profile.extra_delay = -5. };
  expect_bad ~field:"extra_delay"
    { Profile.clean with Profile.extra_delay = Float.nan };
  (* A dynamics view reads its base through the same check. *)
  expect_bad
    ~dynamics:{ Dynamics.default with Dynamics.diurnal = Some Dynamics.default_diurnal }
    ~field:"outage" { Profile.clean with Profile.outage = 2. };
  (* Exact message shape, pinned once. *)
  Alcotest.check_raises "exact message"
    (Invalid_argument "ctx: link 2->3: loss must be in [0, 1] (got 1.5)")
    (fun () ->
      Profile.validate_link "ctx" ~id:"2->3"
        { Profile.clean with Profile.loss = 1.5 });
  Alcotest.check_raises "exact probe message"
    (Invalid_argument "Profile bad: link 2->3: loss must be in [0, 1] (got 1.5)")
    (fun () ->
      ignore (Engine.probe (engine { Profile.clean with Profile.loss = 1.5 }) 2 3))

(* Engine creation is O(n): with dynamics over a [Profile.make]
   profile, building a 5,000-node engine looks up no link at all; the
   first probe looks up one. *)
let test_engine_creation_reads_no_link () =
  let n = 5_000 in
  let lookups = ref 0 in
  let profile =
    Profile.make "counting" (fun _ _ ->
        incr lookups;
        { Profile.clean with Profile.loss = 0.01 })
  in
  let config =
    {
      Engine.default_config with
      Engine.profile = Some profile;
      dynamics =
        Some
          {
            Dynamics.diurnal = Some Dynamics.default_diurnal;
            route_flap = Some Dynamics.default_route_flap;
            seed = 3;
          };
    }
  in
  let oracle = Oracle.of_fn ~size:n (fun i j -> if i = j then 0. else 10.) in
  let e = Engine.create ~config oracle in
  checki "creation reads no link" 0 !lookups;
  ignore (Engine.probe e 17 4_321);
  checki "a probe reads its link once" 1 !lookups

(* ------------------------------------------------------------------ *)
(* Config validation                                                    *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_config_validation () =
  let g = rng 16 in
  let m = random_matrix g ~n:6 in
  let mk config = ignore (Engine.of_matrix ~config m) in
  let base = Engine.default_config in
  let dynamics ?diurnal ?route_flap () =
    { base with Engine.dynamics = Some { Dynamics.default with Dynamics.diurnal; route_flap } }
  in
  List.iter
    (fun (name, config) ->
      checkb name true (raises_invalid (fun () -> mk config)))
    [
      ( "negative cache_ttl",
        { base with Engine.cache_ttl = Some (-. Rng.uniform g 0.1 10.) } );
      ("zero cache_ttl", { base with Engine.cache_ttl = Some 0. });
      ("nan cache_ttl", { base with Engine.cache_ttl = Some nan });
      ( "zero cache capacity",
        { base with Engine.cache_ttl = Some 1.; cache_capacity = Some 0 } );
      ( "capacity without ttl",
        { base with Engine.cache_capacity = Some 4 } );
      ( "zero-capacity budget",
        { base with Engine.budget = Some (Budget.per_node ~capacity:0. ~rate:1.) } );
      ( "negative budget rate",
        { base with Engine.budget = Some (Budget.per_node ~capacity:5. ~rate:(-1.)) } );
      ( "loss out of range",
        { base with Engine.fault = { Fault.default with Fault.loss = 1.5 } } );
      ( "negative retries",
        { base with Engine.fault = { Fault.default with Fault.retries = -1 } } );
      ( "negative timeout",
        { base with Engine.fault = { Fault.default with Fault.timeout = -5. } } );
      ( "backoff factor below one",
        {
          base with
          Engine.fault =
            {
              Fault.default with
              Fault.policy =
                Fault.Backoff { Fault.default_backoff with Fault.factor = 0.5 };
            };
        } );
      ( "target_failure out of range",
        {
          base with
          Engine.fault =
            { Fault.default with Fault.policy = Fault.adaptive ~target_failure:1.5 () };
        } );
      (* Non-finite dynamics: an infinite route-flap rate never finishes
         its schedule, an infinite detour reaches the probe counters,
         and an infinite phase makes every diurnal factor NaN. *)
      ( "infinite route_flap rate",
        dynamics ~route_flap:{ Dynamics.rate = infinity; max_extra = 10. } () );
      ( "infinite route_flap max_extra",
        dynamics ~route_flap:{ Dynamics.rate = 0.1; max_extra = infinity } () );
      ( "infinite diurnal phase",
        dynamics ~diurnal:{ Dynamics.default_diurnal with Dynamics.phase = infinity } () );
    ];
  (* And a valid non-trivial config constructs fine. *)
  mk
    {
      Engine.fault =
        {
          Fault.default with
          Fault.loss = 0.1;
          retries = 2;
          policy = Fault.adaptive ();
        };
      profile = Some (Profile.random ~loss:0.1 ~jitter:0.2 ~seed:5 ());
      churn = Some { Churn.default with Churn.fraction = 0.3 };
      dynamics =
        Some
          {
            Dynamics.diurnal = Some Dynamics.default_diurnal;
            route_flap = Some Dynamics.default_route_flap;
            seed = 4;
          };
      budget = Some (Budget.per_node ~capacity:10. ~rate:1.);
      cache_ttl = Some 5.;
      cache_capacity = Some 64;
      charge_time = true;
      seed = 3;
    }

(* ------------------------------------------------------------------ *)
(* Dynamics and repair: off means bit-for-bit off                      *)

(* A dynamics layer whose knobs are all at zero is not "almost" the
   static profile — it must replay it probe for probe: same outcomes,
   same costs, same accounting, under any clock movement. *)
let test_zero_dynamics_replays_static () =
  let g = rng 17 in
  for _ = 1 to 10 do
    let n = 6 + Rng.int g 6 in
    let m = random_matrix g ~n in
    let seed = Rng.int g 10_000 in
    let profile =
      Profile.random ~loss:(Rng.uniform g 0. 0.3) ~jitter:(Rng.uniform g 0. 0.3)
        ~seed:(Rng.int g 1000) ()
    in
    let config dynamics =
      {
        Engine.default_config with
        Engine.fault = { Fault.default with Fault.loss = 0.1; retries = 1 };
        profile = Some profile;
        dynamics;
        charge_time = true;
        seed;
      }
    in
    let inert =
      {
        Dynamics.diurnal =
          Some
            {
              Dynamics.default_diurnal with
              Dynamics.loss_amplitude = 0.;
              jitter_amplitude = 0.;
            };
        route_flap = Some { Dynamics.rate = 0.; max_extra = 40. };
        seed = Rng.int g 1000;
      }
    in
    let a = Engine.of_matrix ~config:(config None) m in
    let b = Engine.of_matrix ~config:(config (Some inert)) m in
    let wl = Rng.create (seed + 1) in
    for _ = 1 to 300 do
      let i, j = random_pair wl n in
      let ta = Engine.probe_timed a i j and tb = Engine.probe_timed b i j in
      checkb "same outcome" true (ta.Engine.outcome = tb.Engine.outcome);
      Alcotest.(check (float 0.)) "same cost" ta.Engine.cost tb.Engine.cost
    done;
    Alcotest.(check (float 0.)) "same clock" (Engine.now a) (Engine.now b);
    checki "same attempts issued" (Engine.stats a).Probe_stats.issued
      (Engine.stats b).Probe_stats.issued
  done

(* Route-change schedules are a pure function of (config, T): the link
   state after one jump to T equals the state after any staircase of
   advances, however the links were queried along the way. *)
let test_route_flap_path_independent () =
  let g = rng 18 in
  for _ = 1 to 10 do
    let n = 5 + Rng.int g 5 in
    let base = Profile.of_rates ~loss:0.05 ~jitter:0.1 in
    let config =
      {
        Dynamics.diurnal = None;
        route_flap =
          Some
            {
              Dynamics.rate = Rng.uniform g 0.01 0.2;
              max_extra = Rng.uniform g 5. 80.;
            };
        seed = Rng.int g 1000;
      }
    in
    let horizon = Rng.uniform g 50. 400. in
    let jump = Dynamics.create ~config base in
    let steps = Dynamics.create ~config base in
    Dynamics.advance_to jump horizon;
    let t = ref 0. in
    while !t < horizon do
      t := !t +. Rng.uniform g 0.5 20.;
      Dynamics.advance_to steps (Float.min !t horizon);
      (* Interleave queries: lazy materialization must not bend the
         schedule. *)
      let i, j = random_pair g n in
      ignore (Dynamics.link steps i j)
    done;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let a = Dynamics.link jump i j and b = Dynamics.link steps i j in
          Alcotest.(check (float 0.))
            (Printf.sprintf "extra_delay %d->%d" i j)
            a.Profile.extra_delay b.Profile.extra_delay;
          Alcotest.(check (float 0.))
            (Printf.sprintf "loss %d->%d" i j)
            a.Profile.loss b.Profile.loss
        end
      done
    done;
    (* Both have now materialized every stream up to the horizon. *)
    checki "same route-change count" (Dynamics.route_changes jump)
      (Dynamics.route_changes steps)
  done

(* Building the repair machinery without churn must change nothing:
   maintenance passes find nothing to do, and protocol answers are
   identical to a freshly built structure. *)
let test_repair_inert_without_churn () =
  let g = rng 19 in
  let n = 24 in
  let m = random_matrix g ~n in
  (* Chord: healing on a churn-free engine marks nobody and reroutes
     nothing; lookups keep terminating at the structural owner. *)
  let e = Engine.of_matrix m in
  let t =
    Chord.build ~successor_list:6 ~predict:(Engine.rtt ~label:"dht" e)
      (Engine.size e)
  in
  let h = Chord.heal_engine t e in
  checkb "heal probed" true (h.Chord.checked > 0);
  checki "nobody marked dead" 0 h.Chord.marked_dead;
  checki "nobody rerouted" 0 h.Chord.rerouted;
  for _ = 1 to 100 do
    let key = Id_space.add (Id_space.of_node (Rng.int g n)) (Rng.int g 1_000_000) in
    checki "live owner = structural owner" (Chord.owner_of t key)
      (Chord.live_owner_of t key);
    let o = Chord.lookup t (Backend.dense m) ~source:(Rng.int g n) ~key in
    checki "lookup lands on the structural owner" (Chord.owner_of t key)
      o.Chord.owner
  done;
  (* Meridian: ring maintenance on a churn-free engine evicts nothing
     and gossips nothing. *)
  let nodes = Rng.sample_indices g ~n ~k:10 in
  let overlay =
    Overlay.build g (Backend.dense m) (Ring.unlimited_config n) ~meridian_nodes:nodes
  in
  let before = Array.map (Overlay.ring_population overlay) nodes in
  let r = Overlay.repair_engine overlay e in
  checki "no evictions" 0 r.Overlay.evicted;
  checki "no re-entries" 0 r.Overlay.reentered;
  checki "nothing pending" 0 (Overlay.pending_reentries overlay);
  Array.iteri
    (fun idx node ->
      Alcotest.(check (array int))
        (Printf.sprintf "rings of %d unchanged" node)
        before.(idx)
        (Overlay.ring_population overlay node))
    nodes;
  (* Multicast: repair detaches and rejoins nobody, and the parent
     relation is untouched. *)
  let join_order = Array.init n Fun.id in
  Rng.shuffle g join_order;
  let tree = Multicast.build e ~join_order in
  let parents = Array.init n (Multicast.parent tree) in
  let mr = Multicast.repair tree g e in
  checki "nothing detached" 0 mr.Multicast.detached;
  checki "nothing rejoined" 0 mr.Multicast.rejoined;
  for i = 0 to n - 1 do
    checkb "parent unchanged" true (parents.(i) = Multicast.parent tree i)
  done;
  (* Vivaldi: neighbor repair on a churn-free engine evicts nothing and
     keeps every neighbor set intact. *)
  let module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors in
  let sys = System.create_with_engine g e in
  let neighbors = Array.init n (System.neighbors sys) in
  let vr = Dynamic_neighbors.repair_neighbors sys in
  checki "no neighbor evictions" 0 vr.Dynamic_neighbors.evicted;
  checki "no resampling" 0 vr.Dynamic_neighbors.resampled;
  for i = 0 to n - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "neighbors of %d unchanged" i)
      neighbors.(i) (System.neighbors sys i)
  done

(* ------------------------------------------------------------------ *)
(* Probe_stats view = registry                                          *)

(* The engine's metric registry is its only probe-accounting store, so
   [Engine.stats] must read back exactly the [measure.*] series under
   any mix of loss, retry policy, cache, budget, churn and plane labels
   — including planes pinned by [register_plane] that never probe. *)
type view_case = {
  config : Engine.config;
  planes : string option array;  (** labels the probes draw from *)
  pinned : string list;  (** planes only ever registered *)
  world : int;  (** matrix and probe-sequence seed *)
}

let gen_view_case =
  let open QCheck2.Gen in
  let* loss = float_range 0. 0.5 in
  let* retries = int_range 0 3 in
  let* policy =
    oneofl [ Fault.Fixed; Fault.Backoff Fault.default_backoff; Fault.adaptive () ]
  in
  let* cache = opt (pair (float_range 0.5 20.) (opt (int_range 1 16))) in
  let* budget = opt (pair (float_range 1. 8.) (float_range 0. 4.)) in
  let* churn = opt (float_range 0.1 0.6) in
  let* charge_time = bool in
  let* planes =
    oneofl
      [
        [| Some "vivaldi"; Some "alert" |];
        [| Some "meridian" |];
        [| None |];
        [| Some "vivaldi"; None |];
      ]
  in
  let* pinned = oneofl [ []; [ "store_repair" ]; [ "vivaldi"; "idle" ] ] in
  let* seed = int_range 0 9_999 in
  let+ world = int_range 0 1_000_000 in
  let config =
    {
      Engine.default_config with
      Engine.fault = { Fault.default with Fault.loss; retries; policy };
      cache_ttl = Option.map fst cache;
      cache_capacity = Option.join (Option.map snd cache);
      budget =
        Option.map (fun (capacity, rate) -> Budget.per_node ~capacity ~rate) budget;
      churn = Option.map (fun fraction -> { Churn.default with Churn.fraction; seed }) churn;
      charge_time;
      seed;
    }
  in
  { config; planes; pinned; world }

let print_view_case c =
  let cfg = c.config in
  Printf.sprintf
    "loss=%g retries=%d cache_ttl=%s capacity=%s budget=%b churn=%b \
     charge_time=%b planes=[%s] pinned=[%s] seed=%d world=%d"
    cfg.Engine.fault.Fault.loss cfg.Engine.fault.Fault.retries
    (Option.fold ~none:"-" ~some:string_of_float cfg.Engine.cache_ttl)
    (Option.fold ~none:"-" ~some:string_of_int cfg.Engine.cache_capacity)
    (Option.is_some cfg.Engine.budget) (Option.is_some cfg.Engine.churn)
    cfg.Engine.charge_time
    (String.concat ";" (Array.to_list (Array.map (Option.value ~default:"-") c.planes)))
    (String.concat ";" c.pinned) cfg.Engine.seed c.world

let stats_view_matches_registry c =
  let g = Rng.create c.world in
  let n = 10 + Rng.int g 10 in
  let e = Engine.of_matrix ~config:c.config (random_matrix ~missing:0.1 g ~n) in
  List.iter (Engine.register_plane e) c.pinned;
  for _ = 1 to 150 do
    if Rng.bernoulli g 0.2 then Engine.advance e (Rng.uniform g 0. 5.);
    let i, j = random_pair g n in
    let label = c.planes.(Rng.int g (Array.length c.planes)) in
    ignore (Engine.rtt ?label e i j)
  done;
  let series = Obs.Registry.metrics (Engine.obs e) in
  let counter key =
    match List.assoc_opt key series with
    | Some (Obs.Registry.Counter ctr) -> Obs.Counter.value ctr
    | _ -> QCheck2.Test.fail_reportf "no counter series %s" key
  in
  let count key = int_of_float (counter key) in
  let st = Engine.stats e in
  let field name v key =
    if v <> count key then
      QCheck2.Test.fail_reportf "%s=%d but %s=%d" name v key (count key)
  in
  field "requests" st.Probe_stats.requests "measure.requests";
  field "issued" st.Probe_stats.issued "measure.probes.sent";
  field "lost" st.Probe_stats.lost "measure.probes.lost";
  field "retried" st.Probe_stats.retried "measure.probes.retried";
  field "failed" st.Probe_stats.failed "measure.probes.failed";
  field "denied" st.Probe_stats.denied "measure.probes.denied";
  field "down" st.Probe_stats.down "measure.probes.down";
  field "unmeasured" st.Probe_stats.unmeasured "measure.probes.unmeasured";
  field "hits" st.Probe_stats.hits "measure.cache.hits";
  field "stale" st.Probe_stats.stale "measure.cache.stale";
  field "misses" st.Probe_stats.misses "measure.cache.misses";
  field "evicted" st.Probe_stats.evicted "measure.cache.evicted";
  if st.Probe_stats.probe_ms <> counter "measure.probe_ms" then
    QCheck2.Test.fail_reportf "probe_ms=%g but measure.probe_ms=%g"
      st.Probe_stats.probe_ms (counter "measure.probe_ms");
  let prefix = "measure.probes.sent{plane=" in
  let plen = String.length prefix in
  let sent_series =
    List.filter_map
      (fun (key, _) ->
        if String.starts_with ~prefix key && count key > 0 then
          Some (String.sub key plen (String.length key - plen - 1), count key)
        else None)
      series
  in
  if Probe_stats.labels st <> sent_series then
    QCheck2.Test.fail_reportf "labels differ from the non-zero sent{plane} series";
  List.iter
    (fun plane ->
      if (not (Array.mem (Some plane) c.planes)) && List.mem_assoc plane st.Probe_stats.per_label
      then QCheck2.Test.fail_reportf "pinned plane %s listed" plane)
    c.pinned;
  let labelled = List.fold_left (fun acc (_, k) -> acc + k) 0 st.Probe_stats.per_label in
  if (not (Array.mem None c.planes)) && labelled <> st.Probe_stats.issued then
    QCheck2.Test.fail_reportf "sum per_label=%d but issued=%d" labelled
      st.Probe_stats.issued;
  true

let test_stats_view_matches_registry =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| prop_seed |])
    (QCheck2.Test.make ~count:60 ~name:"stats view = registry"
       ~print:print_view_case gen_view_case stats_view_matches_registry)

(* ------------------------------------------------------------------ *)
(* Profiles are valid by construction                                  *)

(* A stock constructor either rejects its bases, naming the field, or
   yields in-range links everywhere; and a valid dynamics config over
   an accepted profile keeps every link in range at every time. *)
type constructor_case = {
  ctor : [ `Uniform | `Topology | `Random ];
  loss : float;
  jitter : float;
  outage : float;
  extra_delay : float;
  labels : int array;  (** topology cluster labels; its length is n *)
  dyn : Dynamics.config;
  times : float list;  (** increasing sample times *)
}

let gen_constructor_case =
  let open QCheck2.Gen in
  let rate =
    oneof
      [
        float_range 0. 1.;
        float_range (-1.) 3.;
        oneofl [ 0.; 1.; 0.95; 0.999; -0.01; 1.01; nan; infinity ];
      ]
  in
  let* ctor = oneofl [ `Uniform; `Topology; `Random ] in
  let* loss = rate and* jitter = rate and* outage = rate in
  let* extra_delay =
    oneof [ float_range 0. 100.; oneofl [ -1.; nan; infinity; 0. ] ]
  in
  let* labels = array_size (int_range 2 9) (int_range (-1) 2) in
  let* diurnal =
    opt
      (let* period = float_range 1. 500.
       and* loss_amplitude = float_range 0. 1.
       and* jitter_amplitude = float_range 0. 1.
       and* phase = float_range (-1000.) 1000. in
       return { Dynamics.period; loss_amplitude; jitter_amplitude; phase })
  in
  let* route_flap =
    opt
      (let* rate = float_range 0. 0.5 and* max_extra = float_range 0. 100. in
       return { Dynamics.rate; max_extra })
  in
  let* seed = int_range 0 9_999 in
  let+ times = list_size (int_range 1 6) (float_range 0. 2000.) in
  {
    ctor;
    loss;
    jitter;
    outage;
    extra_delay;
    labels;
    dyn = { Dynamics.diurnal; route_flap; seed };
    times = List.sort compare times;
  }

let print_constructor_case c =
  Printf.sprintf
    "%s loss=%g jitter=%g outage=%g extra_delay=%g n=%d diurnal=%b \
     route_flap=%b seed=%d times=[%s]"
    (match c.ctor with
    | `Uniform -> "uniform"
    | `Topology -> "topology"
    | `Random -> "random")
    c.loss c.jitter c.outage c.extra_delay (Array.length c.labels)
    (Option.is_some c.dyn.Dynamics.diurnal)
    (Option.is_some c.dyn.Dynamics.route_flap)
    c.dyn.Dynamics.seed
    (String.concat ";" (List.map string_of_float c.times))

let link_in_range (l : Profile.link) =
  l.loss >= 0. && l.loss <= 1. && l.jitter >= 0. && l.jitter < 1.
  && l.outage >= 0. && l.outage <= 1.
  && Float.is_finite l.extra_delay && l.extra_delay >= 0.

let constructors_in_range c =
  let n = Array.length c.labels in
  let base =
    {
      Profile.loss = c.loss;
      jitter = c.jitter;
      outage = c.outage;
      extra_delay = c.extra_delay;
    }
  in
  let build () =
    match c.ctor with
    | `Uniform -> Profile.uniform base
    | `Topology ->
      Profile.topology ~loss:c.loss ~jitter:c.jitter ~cluster_of:c.labels ()
    | `Random ->
      Profile.random ~loss:c.loss ~jitter:c.jitter ~outage:c.outage
        ~seed:c.dyn.Dynamics.seed ()
  in
  let check_all what link =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let l = link i j in
        if not (link_in_range l) then
          QCheck2.Test.fail_reportf
            "%s: link %d->%d out of range: loss=%g jitter=%g outage=%g \
             extra_delay=%g"
            what i j l.Profile.loss l.Profile.jitter l.Profile.outage
            l.Profile.extra_delay
      done
    done
  in
  (* The inputs each constructor reads: in range, they are accepted.
     [uniform] and [random] also reject them out of range; [topology]
     judges its derived class links instead, which may clamp. *)
  let inputs =
    match c.ctor with
    | `Uniform -> base
    | `Topology -> { Profile.clean with Profile.loss = c.loss; jitter = c.jitter }
    | `Random -> { base with Profile.extra_delay = 0. }
  in
  match build () with
  | exception Invalid_argument msg ->
    if not (List.exists (contains msg) [ "loss"; "jitter"; "outage"; "extra_delay" ])
    then QCheck2.Test.fail_reportf "rejection names no field: %s" msg;
    if link_in_range inputs then
      QCheck2.Test.fail_reportf "in-range inputs rejected: %s" msg;
    true
  | profile ->
    if c.ctor <> `Topology && not (link_in_range inputs) then
      QCheck2.Test.fail_reportf "out-of-range inputs accepted";
    check_all "static" (Profile.link profile);
    let d = Dynamics.create ~config:c.dyn profile in
    check_all "dynamics at 0" (Dynamics.link d);
    List.iter
      (fun time ->
        Dynamics.advance_to d time;
        check_all (Printf.sprintf "dynamics at %g" time) (Dynamics.link d))
      c.times;
    true

let test_constructors_in_range =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| prop_seed |])
    (QCheck2.Test.make ~count:300
       ~name:"constructors reject bad bases or yield in-range links"
       ~print:print_constructor_case gen_constructor_case constructors_in_range)

let () =
  Alcotest.run "measure-properties"
    [
      ( "cache",
        [
          Alcotest.test_case "never serves past ttl" `Quick test_cache_never_stale;
          Alcotest.test_case "capacity never exceeded" `Quick
            test_cache_capacity_never_exceeded;
          Alcotest.test_case "eviction counter identity" `Quick
            test_cache_eviction_counter_identity;
          Alcotest.test_case "evicts the lru key" `Quick test_cache_evicts_lru_key;
        ] );
      ( "budget",
        [
          Alcotest.test_case "denied consumes nothing" `Quick
            test_budget_denied_consumes_nothing;
          Alcotest.test_case "engine-level conservation" `Quick
            test_engine_budget_conservation;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "attempt identities" `Quick
            test_engine_attempt_accounting;
          Alcotest.test_case "cache identities" `Quick test_engine_cache_accounting;
          Alcotest.test_case "no loss, one attempt" `Quick
            test_engine_no_loss_single_attempt;
          test_stats_view_matches_registry;
        ] );
      ( "oracle-mode",
        [
          Alcotest.test_case "default engine = matrix" `Quick
            test_default_engine_equals_oracle;
          Alcotest.test_case "online engine = online matrix" `Quick
            test_online_engine_equals_matrix;
        ] );
      ( "time",
        [
          Alcotest.test_case "clock tracks probe cost" `Quick
            test_clock_tracks_probe_cost;
          Alcotest.test_case "jitter band" `Quick test_jitter_band;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_delay_schedule;
          Alcotest.test_case "adaptive budget bounds" `Quick
            test_adaptive_retry_budget_bounds;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "zero-fault profile = oracle on all protocols"
            `Quick test_zero_fault_profile_equals_oracle_protocols;
          Alcotest.test_case "uniform profile = global model" `Quick
            test_uniform_profile_matches_global_model;
          Alcotest.test_case "per-link estimator converges" `Quick
            test_per_link_estimate_converges;
          Alcotest.test_case "profile validation names the link" `Quick
            test_profile_validation_names_link;
          Alcotest.test_case "engine creation reads no link" `Quick
            test_engine_creation_reads_no_link;
          test_constructors_in_range;
        ] );
      ( "validation",
        [ Alcotest.test_case "config validation" `Quick test_config_validation ] );
      ( "dynamics",
        [
          Alcotest.test_case "zero dynamics replays static profile" `Quick
            test_zero_dynamics_replays_static;
          Alcotest.test_case "route flap path independent" `Quick
            test_route_flap_path_independent;
          Alcotest.test_case "repair inert without churn" `Quick
            test_repair_inert_without_churn;
        ] );
    ]
