module Rng = Tivaware_util.Rng
module Obs = Tivaware_obs

type config = {
  fault : Fault.config;
  profile : Profile.t option;
  churn : Churn.config option;
  dynamics : Dynamics.config option;
  budget : Budget.config option;
  cache_ttl : float option;
  cache_capacity : int option;
  charge_time : bool;
  seed : int;
}

let default_config =
  {
    fault = Fault.default;
    profile = None;
    churn = None;
    dynamics = None;
    budget = None;
    cache_ttl = None;
    cache_capacity = None;
    charge_time = false;
    seed = 0;
  }

(* Probe costs are in the oracle's RTT unit (ms); the engine clock is
   in logical seconds. *)
let ms_per_second = 1000.

(* Observability instruments, resolved once at engine creation so the
   probe hot path pays plain field accesses, not registry lookups.
   They are the engine's only probe accounting: [stats] reads its
   Probe_stats view from them.  Per-plane series ([{plane=...}]
   labels) are resolved lazily and memoized. *)
type instruments = {
  i_requests : Obs.Counter.t;
  i_sent : Obs.Counter.t;
  i_lost : Obs.Counter.t;
  i_retried : Obs.Counter.t;
  i_failed : Obs.Counter.t;
  i_denied : Obs.Counter.t;
  i_down : Obs.Counter.t;
  i_unmeasured : Obs.Counter.t;
  i_hits : Obs.Counter.t;
  i_stale : Obs.Counter.t;
  i_misses : Obs.Counter.t;
  i_evicted : Obs.Counter.t;
  i_probe_ms : Obs.Counter.t;
  i_rtt_ms : Obs.Histogram.t;
  i_cost_ms : Obs.Histogram.t;
  i_per_plane : (string, Obs.Counter.t * Obs.Counter.t) Hashtbl.t;
      (* plane -> (probes sent, probe_ms) *)
}

type t = {
  config : config;
  oracle : Oracle.t;
  fault : Fault.t;
  churn : Churn.t option;
  dynamics : Dynamics.t option;
  budget : Budget.t option;
  cache : Cache.t option;
  obs : Obs.Registry.t;
  inst : instruments;
  (* Whether attempt outcomes feed the injector's loss estimate: only
     the [Adaptive] policy reads it ([Fault.retry_budget]), so the
     other policies skip the per-link table write. *)
  learn_loss : bool;
  (* The last plane label seen and its counters: callers pass one
     label constant per plane, so a physically equal label skips the
     string hash. *)
  mutable last_plane : (string * (Obs.Counter.t * Obs.Counter.t)) option;
  (* Hot-path scratch: slot 0 the last probe's value, slot 1 its
     accumulated cost.  A float array, not mutable record fields,
     because float-array stores are unboxed without flambda; probes
     never nest, so one scratch per engine is safe. *)
  scratch : float array;
  mutable clock : float;
}

let rtt_edges = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]
let cost_edges = [| 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000.; 10000. |]

(* Register the whole metric schema up front — including the repair and
   alert families other planes fill in later — so every run summary
   carries the same series and a zero really means "nothing happened",
   not "never wired". *)
let make_instruments obs =
  let counter ?labels name = Obs.Registry.counter obs ?labels name in
  let gauge ?labels name = ignore (Obs.Registry.gauge obs ?labels name) in
  List.iter
    (fun (name, plane) -> ignore (counter ~labels:[ ("plane", plane) ] name))
    [
      ("repair.evicted", "vivaldi");
      ("repair.resampled", "vivaldi");
      ("repair.checked", "chord");
      ("repair.rerouted", "chord");
      ("repair.marked_dead", "chord");
      ("repair.revived", "chord");
      ("repair.evicted", "meridian");
      ("repair.reentered", "meridian");
      ("repair.detached", "multicast");
      ("repair.reattached", "multicast");
      ("repair.rejoined", "multicast");
    ];
  ignore (Obs.Registry.gauge obs ~labels:[ ("plane", "meridian") ] "repair.pending");
  gauge "alert.precision";
  gauge "alert.recall";
  gauge "alert.f1";
  ignore (counter "meridian.query_failures");
  {
    i_requests = counter "measure.requests";
    i_sent = counter "measure.probes.sent";
    i_lost = counter "measure.probes.lost";
    i_retried = counter "measure.probes.retried";
    i_failed = counter "measure.probes.failed";
    i_denied = counter "measure.probes.denied";
    i_down = counter "measure.probes.down";
    i_unmeasured = counter "measure.probes.unmeasured";
    i_hits = counter "measure.cache.hits";
    i_stale = counter "measure.cache.stale";
    i_misses = counter "measure.cache.misses";
    i_evicted = counter "measure.cache.evicted";
    i_probe_ms = counter "measure.probe_ms";
    i_rtt_ms = Obs.Registry.histogram obs ~edges:rtt_edges "measure.rtt_ms";
    i_cost_ms = Obs.Registry.histogram obs ~edges:cost_edges "measure.cost_ms";
    i_per_plane = Hashtbl.create 8;
  }

let plane_counters t plane =
  match t.last_plane with
  | Some (last, pair) when last == plane -> pair
  | _ ->
    let pair =
      match Hashtbl.find t.inst.i_per_plane plane with
      | pair -> pair
      | exception Not_found ->
        let labels = [ ("plane", plane) ] in
        let pair =
          ( Obs.Registry.counter t.obs ~labels "measure.probes.sent",
            Obs.Registry.counter t.obs ~labels "measure.probe_ms" )
        in
        Hashtbl.replace t.inst.i_per_plane plane pair;
        pair
    in
    t.last_plane <- Some (plane, pair);
    pair

let validate_config (config : config) =
  Fault.validate_config "Engine.create" config.fault;
  Option.iter (Churn.validate_config "Engine.create") config.churn;
  Option.iter (Dynamics.validate_config "Engine.create") config.dynamics;
  Option.iter (Budget.validate_config "Engine.create") config.budget;
  (match config.cache_ttl with
  | Some ttl when Float.is_nan ttl || ttl <= 0. ->
    invalid_arg
      (Printf.sprintf
         "Engine.create: cache_ttl must be positive (got %g; omit the cache \
          instead of disabling it with a non-positive TTL)"
         ttl)
  | _ -> ());
  match (config.cache_capacity, config.cache_ttl) with
  | Some c, _ when c < 1 ->
    invalid_arg
      (Printf.sprintf "Engine.create: cache_capacity must be >= 1 (got %d)" c)
  | Some _, None ->
    invalid_arg
      "Engine.create: cache_capacity requires cache_ttl (there is no cache to \
       bound)"
  | _ -> ()

let create ?(config = default_config) oracle =
  validate_config config;
  let n = Oracle.size oracle in
  (* Dynamics wrap the configured profile — or, like the injector's own
     back-compat path, a uniform profile built from the global fault
     rates, which reproduces the global model probe for probe. *)
  let dynamics =
    Option.map
      (fun d ->
        let base =
          match config.profile with
          | Some p -> p
          | None ->
            Profile.of_rates ~loss:config.fault.Fault.loss
              ~jitter:config.fault.Fault.jitter
        in
        Dynamics.create ~config:d base)
      config.dynamics
  in
  let fault =
    match dynamics with
    | Some d ->
      Fault.create ~config:config.fault ~dynamics:d (Rng.create config.seed) ~n
    | None ->
      Fault.create ~config:config.fault ?profile:config.profile
        (Rng.create config.seed) ~n
  in
  let churn = Option.map (fun c -> Churn.create ~config:c ~n ()) config.churn in
  (* Churn owns the up/down state of its churning nodes from time 0 on
     (everyone starts up); non-churning nodes keep whatever the
     config.outage draw decided. *)
  Option.iter (fun c -> Churn.drive c fault ~time:0.) churn;
  let obs = Obs.Registry.create () in
  {
    config;
    oracle;
    fault;
    churn;
    dynamics;
    budget = Option.map (fun b -> Budget.create b ~n) config.budget;
    cache =
      Option.map
        (fun ttl -> Cache.create ?capacity:config.cache_capacity ~ttl ())
        config.cache_ttl;
    obs;
    inst = make_instruments obs;
    learn_loss =
      (match config.fault.Fault.policy with
      | Fault.Adaptive _ -> true
      | Fault.Fixed | Fault.Backoff _ -> false);
    last_plane = None;
    scratch = Array.make 2 nan;
    clock = 0.;
  }

let of_matrix ?config m = create ?config (Oracle.of_matrix m)

let config t = t.config
let oracle t = t.oracle
let size t = Oracle.size t.oracle
let fault t = t.fault
let churn t = t.churn
let up t i = match t.churn with None -> true | Some c -> Churn.is_up c i
let dynamics t = t.dynamics
let obs t = t.obs

let now t = t.clock

(* Every clock movement drives both time-dependent planes: network
   conditions (dynamics) and membership (churn). *)
let sync_churn t =
  Option.iter (fun d -> Dynamics.advance_to d t.clock) t.dynamics;
  match t.churn with
  | None -> ()
  | Some c -> Churn.drive c t.fault ~time:t.clock

(* A nan step or time would stop the clock for good: nan compares
   false against every later time. *)
let advance t dt =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg
      (Printf.sprintf "Engine.advance: dt must be finite and >= 0 (got %g)" dt);
  t.clock <- t.clock +. dt;
  sync_churn t

let advance_to t time =
  if Float.is_nan time then invalid_arg "Engine.advance_to: time is nan";
  if time > t.clock then begin
    t.clock <- time;
    sync_churn t
  end

let clock_work t ~links ~until =
  let churn =
    match t.config.churn with
    | Some c ->
      c.Churn.fraction *. float_of_int (size t) *. 2.
      /. (c.Churn.mean_up +. c.Churn.mean_down)
      *. until
    | None -> 0.
  in
  let flaps =
    match Option.bind t.config.dynamics (fun d -> d.Dynamics.route_flap) with
    | Some rf when rf.Dynamics.rate > 0. && rf.Dynamics.max_extra > 0. ->
      float_of_int links *. rf.Dynamics.rate *. until
    | _ -> 0.
  in
  churn +. flaps

type outcome =
  | Rtt of float
  | Cached of float
  | Denied
  | Down
  | Lost
  | Unmeasured

type timed = {
  outcome : outcome;
  cost : float;
}

(* The hot path below works in outcome *codes*, with the probe's value
   and accumulated cost living in [t.scratch] — no [outcome] variant,
   [timed] record, closure or ref cell is built per probe.  The
   variant-returning API ([probe_timed]/[probe]) wraps the code path,
   so both report identical results; golden fixtures hold either way
   because the logic, draw order and instrument updates are
   unchanged. *)
let code_rtt = 0
let code_cached = 1
let code_denied = 2
let code_down = 3
let code_lost = 4
let code_unmeasured = 5

(* The engine's only writer of the loss estimate. *)
let record_outcome t i j ~lost = if t.learn_loss then Fault.record_outcome t.fault i j ~lost

(* One probe after the cache has missed: budget, then the attempt
   loop.  Every wire attempt is charged and counted, including the
   attempts burned against a node in outage (the prober cannot know the
   peer is down until nothing comes back).  [scratch.(1)] accumulates
   what the issuing node waits for: delivered RTTs, timeouts of
   unanswered attempts, and backoff delays between retries.  A
   top-level recursive function, not a local closure, so the loop
   captures nothing. *)
let rec probe_attempt t label i j lk ~endpoint_down ~retries ~timeout k =
  let inst = t.inst in
  let s = t.scratch in
  if k > 0 then begin
    Obs.Counter.incr inst.i_retried;
    s.(1) <- s.(1) +. Fault.backoff_delay t.fault ~attempt:k
  end;
  (* Re-admission for retransmissions; the first attempt was charged
     by the caller's admission check. *)
  let admitted =
    k = 0
    ||
    match t.budget with
    | None -> true
    | Some b -> Budget.try_take b ~now:t.clock i
  in
  if not admitted then begin
    Obs.Counter.incr inst.i_denied;
    code_denied
  end
  else begin
    Obs.Counter.incr inst.i_sent;
    (match label with
    | None -> ()
    | Some plane -> Obs.Counter.incr (fst (plane_counters t plane)));
    if endpoint_down then begin
      Obs.Counter.incr inst.i_lost;
      record_outcome t i j ~lost:true;
      s.(1) <- s.(1) +. timeout;
      if k < retries then
        probe_attempt t label i j lk ~endpoint_down ~retries ~timeout (k + 1)
      else begin
        Obs.Counter.incr inst.i_down;
        code_down
      end
    end
    else begin
      let true_rtt = Oracle.query t.oracle i j in
      if Float.is_nan true_rtt then begin
        Obs.Counter.incr inst.i_unmeasured;
        (* Indistinguishable from loss at the prober: it waits the
           timeout and its loss estimate takes the hit. *)
        record_outcome t i j ~lost:true;
        s.(1) <- s.(1) +. timeout;
        code_unmeasured
      end
      else if Fault.attempt_into t.fault lk ~rtt:true_rtt ~into:s then begin
        let sample = s.(0) in
        record_outcome t i j ~lost:false;
        s.(1) <- s.(1) +. sample;
        Obs.Histogram.observe inst.i_rtt_ms sample;
        (match t.cache with
        | None -> ()
        | Some c ->
          let evicted = Cache.store c ~now:t.clock i j sample in
          Obs.Counter.add inst.i_evicted (float_of_int evicted));
        code_rtt
      end
      else begin
        Obs.Counter.incr inst.i_lost;
        record_outcome t i j ~lost:true;
        s.(1) <- s.(1) +. timeout;
        if k < retries then
          probe_attempt t label i j lk ~endpoint_down ~retries ~timeout (k + 1)
        else begin
          Obs.Counter.incr inst.i_failed;
          code_lost
        end
      end
    end
  end

let probe_uncached_code t label i j =
  let inst = t.inst in
  t.scratch.(1) <- 0.;
  let admitted =
    match t.budget with
    | None -> true
    | Some b -> Budget.try_take b ~now:t.clock i
  in
  if not admitted then begin
    Obs.Counter.incr inst.i_denied;
    code_denied
  end
  else begin
    (* The link is looked up once per request (the clock does not move
       between its attempts), and never when an endpoint is down. *)
    let node_down = Fault.node_down t.fault i || Fault.node_down t.fault j in
    let lk = if node_down then Profile.clean else Fault.link t.fault i j in
    let endpoint_down = node_down || Fault.link_down t.fault i j lk in
    (* The retry budget is sized once per request, from the issuer's
       estimate of this link's loss as it stood before this request. *)
    let retries = Fault.retry_budget t.fault i j in
    let timeout = (Fault.config t.fault).Fault.timeout in
    probe_attempt t label i j lk ~endpoint_down ~retries ~timeout 0
  end

let probe_code t label i j =
  let inst = t.inst in
  Obs.Counter.incr inst.i_requests;
  let code =
    match t.cache with
    | None -> probe_uncached_code t label i j
    | Some c ->
      let lc = Cache.find_code c ~now:t.clock ~into:t.scratch i j in
      if lc = Cache.code_hit then begin
        Obs.Counter.incr inst.i_hits;
        t.scratch.(1) <- 0.;
        code_cached
      end
      else begin
        Obs.Counter.incr (if lc = Cache.code_stale then inst.i_stale else inst.i_misses);
        probe_uncached_code t label i j
      end
  in
  let cost = t.scratch.(1) in
  Obs.Histogram.observe inst.i_cost_ms cost;
  if cost > 0. then begin
    Obs.Counter.add inst.i_probe_ms cost;
    match label with
    | None -> ()
    | Some plane -> Obs.Counter.add (snd (plane_counters t plane)) cost
  end;
  if t.config.charge_time && cost > 0. then begin
    t.clock <- t.clock +. (cost /. ms_per_second);
    sync_churn t
  end;
  code

let probe_timed ?label t i j =
  let code = probe_code t label i j in
  let outcome =
    if code = code_rtt then Rtt t.scratch.(0)
    else if code = code_cached then Cached t.scratch.(0)
    else if code = code_denied then Denied
    else if code = code_down then Down
    else if code = code_lost then Lost
    else Unmeasured
  in
  { outcome; cost = t.scratch.(1) }

let probe ?label t i j = (probe_timed ?label t i j).outcome

let rtt ?label t i j =
  let code = probe_code t label i j in
  if code <= code_cached then t.scratch.(0) else nan

let rtt_timed ?label t i j =
  let code = probe_code t label i j in
  let v = if code <= code_cached then t.scratch.(0) else nan in
  (v, t.scratch.(1))

(* The view is read straight from the instruments, so it cannot drift
   from the exported [measure.*] series.  Per-plane counters pinned by
   [register_plane] but never probed stay out of [per_label]. *)
let stats t =
  let i = t.inst in
  let n = Obs.Counter.count in
  let per_label =
    Hashtbl.fold
      (fun plane (sent, _) acc -> if n sent > 0 then (plane, n sent) :: acc else acc)
      i.i_per_plane []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Probe_stats.requests = n i.i_requests;
    issued = n i.i_sent;
    lost = n i.i_lost;
    retried = n i.i_retried;
    failed = n i.i_failed;
    denied = n i.i_denied;
    down = n i.i_down;
    unmeasured = n i.i_unmeasured;
    hits = n i.i_hits;
    stale = n i.i_stale;
    misses = n i.i_misses;
    evicted = n i.i_evicted;
    probe_ms = Obs.Counter.value i.i_probe_ms;
    per_label;
  }

let register_plane t plane = ignore (plane_counters t plane : Obs.Counter.t * Obs.Counter.t)
