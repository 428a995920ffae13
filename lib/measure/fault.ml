module Rng = Tivaware_util.Rng

type backoff = {
  base : float;
  factor : float;
  delay_jitter : float;
}

let default_backoff = { base = 100.; factor = 2.; delay_jitter = 0. }

type retry_policy =
  | Fixed
  | Backoff of backoff
  | Adaptive of { backoff : backoff; target_failure : float }

type config = {
  loss : float;
  jitter : float;
  outage : float;
  retries : int;
  policy : retry_policy;
  timeout : float;
}

let default =
  {
    loss = 0.;
    jitter = 0.;
    outage = 0.;
    retries = 0;
    policy = Fixed;
    timeout = 3000.;
  }

let adaptive ?(backoff = default_backoff) ?(target_failure = 0.01) () =
  Adaptive { backoff; target_failure }

(* EWMA weight for the loss estimators.  Small enough to smooth
   attempt-level noise, large enough that ~20 observed attempts move the
   estimate near the true rate. *)
let loss_est_alpha = 0.1

(* Shrinkage prior strength for the per-link estimate: a link with [c]
   observed attempts is trusted with weight [c / (c + k)], the rest
   coming from its source node's aggregate.  With k = 5, five samples
   already split the estimate evenly. *)
let loss_est_prior = 5.

(* Where a link's parameters come from: a static profile, or the
   dynamics model's live view over its base profile. *)
type links =
  | Static of Profile.t
  | Dynamic of Dynamics.t

type t = {
  config : config;
  links : links;
  n : int;
  rng : Rng.t;
  (* Node outage flags, one byte per node ('\001' = down): read on
     every probe, so a byte load rather than a hash lookup. *)
  down : Bytes.t;
  (* Directed-link state, keyed by [i * n + j].  Hashtables, not n^2
     arrays: only probed links ever materialize.  Each cell is a
     2-slot float array — [|ewma; attempt count|] — mutated in place,
     so the per-attempt estimate update allocates only on a link's
     first observation (float-array stores are unboxed; a tuple or
     mixed record here would box every write). *)
  loss_est : (int, float array) Hashtbl.t;
  (* Source-node aggregate estimate: the fallback prior for links with
     few observations of their own (a prober that has seen 20% loss
     across its links expects roughly that on a fresh link too). *)
  node_loss_est : float array;
  link_outage : (int, bool) Hashtbl.t;
  link_salt : int;
}

let validate_backoff ctx b =
  if Float.is_nan b.base || b.base < 0. then
    invalid_arg
      (Printf.sprintf "%s: backoff base must be >= 0 ms (got %g)" ctx b.base);
  if Float.is_nan b.factor || b.factor < 1. then
    invalid_arg
      (Printf.sprintf "%s: backoff factor must be >= 1 (got %g)" ctx b.factor);
  if Float.is_nan b.delay_jitter || b.delay_jitter < 0. || b.delay_jitter >= 1.
  then
    invalid_arg
      (Printf.sprintf "%s: backoff delay_jitter must be in [0, 1) (got %g)" ctx
         b.delay_jitter)

let validate_config ctx config =
  if config.loss < 0. || config.loss >= 1. then
    invalid_arg (Printf.sprintf "%s: loss must be in [0, 1)" ctx);
  if config.jitter < 0. || config.jitter >= 1. then
    invalid_arg (Printf.sprintf "%s: jitter must be in [0, 1)" ctx);
  if config.outage < 0. || config.outage > 1. then
    invalid_arg (Printf.sprintf "%s: outage must be in [0, 1]" ctx);
  if config.retries < 0 then
    invalid_arg (Printf.sprintf "%s: negative retries" ctx);
  if Float.is_nan config.timeout || config.timeout < 0. then
    invalid_arg
      (Printf.sprintf "%s: timeout must be >= 0 ms (got %g)" ctx config.timeout);
  match config.policy with
  | Fixed -> ()
  | Backoff b -> validate_backoff ctx b
  | Adaptive { backoff; target_failure } ->
    validate_backoff ctx backoff;
    if
      Float.is_nan target_failure || target_failure <= 0. || target_failure >= 1.
    then
      invalid_arg
        (Printf.sprintf "%s: target_failure must be in (0, 1) (got %g)" ctx
           target_failure)

let create ?(config = default) ?profile ?dynamics rng ~n =
  validate_config "Fault.create" config;
  (* No link is read here: profiles are valid by construction, and a
     dynamics view over a valid base stays in range (see [Dynamics]). *)
  let links =
    match (profile, dynamics) with
    | Some _, Some _ ->
      invalid_arg
        "Fault.create: pass a profile or a dynamics model (which wraps its \
         own base profile), not both"
    | None, Some d -> Dynamic d
    | Some p, None -> Static p
    | None, None ->
      (* Back-compat: the global config as a uniform profile.  Built
         after config validation, so its fields are already in range. *)
      Static (Profile.of_rates ~loss:config.loss ~jitter:config.jitter)
  in
  (* The per-link outage stream is salted from a copy of the generator
     so drawing it never advances the main fault stream (a profile
     without link outages stays probe-for-probe identical to the global
     model). *)
  let link_salt = Int64.to_int (Rng.int64 (Rng.copy rng)) land 0x3FFFFFFF in
  let down = Bytes.make n '\000' in
  let k = int_of_float (config.outage *. float_of_int n) in
  if k > 0 then
    Array.iter (fun i -> Bytes.set down i '\001') (Rng.sample_indices rng ~n ~k);
  {
    config;
    links;
    n;
    rng;
    down;
    loss_est = Hashtbl.create 64;
    node_loss_est = Array.make n 0.;
    link_outage = Hashtbl.create 16;
    link_salt;
  }

let config t = t.config
let node_down t i = Bytes.get t.down i <> '\000'

let set_down t i down =
  if i < 0 || i >= t.n then
    invalid_arg
      (Printf.sprintf "Fault.set_down: node %d outside 0..%d" i (t.n - 1));
  Bytes.set t.down i (if down then '\001' else '\000')

let link t i j =
  match t.links with
  | Static p -> Profile.link p i j
  | Dynamic d -> Dynamics.link d i j

(* Whether the directed link is in outage for the injector's lifetime.
   The draw is deterministic in (salt, i, j) and memoized, so it does
   not depend on probe order and never consumes the main stream. *)
let link_down t i j lk =
  let p = lk.Profile.outage in
  if p <= 0. then false
  else if p >= 1. then true
  else begin
    let key = (i * t.n) + j in
    match Hashtbl.find_opt t.link_outage key with
    | Some v -> v
    | None ->
      let r = Rng.create ((t.link_salt * 31) lxor (((i * 1_000_003) + j) * 7919)) in
      let v = Rng.float r 1. < p in
      Hashtbl.add t.link_outage key v;
      v
  end

(* The non-allocating attempt used by the probe hot path: the sample
   lands in [into.(0)], and the link's parameters come from the
   caller's one lookup per request.  Draw order: loss, then jitter. *)
let attempt_into t lk ~rtt ~into =
  if lk.Profile.loss > 0. && Rng.bernoulli t.rng lk.Profile.loss then false
  else begin
    let rtt = rtt +. lk.Profile.extra_delay in
    let sample =
      if lk.Profile.jitter > 0. then
        rtt *. Rng.uniform t.rng (1. -. lk.Profile.jitter) (1. +. lk.Profile.jitter)
      else rtt
    in
    into.(0) <- sample;
    true
  end

let link_key t i j = (i * t.n) + j

let ewma prev sample = (loss_est_alpha *. sample) +. ((1. -. loss_est_alpha) *. prev)

let record_outcome t i j ~lost =
  if i >= 0 && i < t.n && j >= 0 && j < t.n then begin
    let key = link_key t i j in
    let cell =
      match Hashtbl.find t.loss_est key with
      | cell -> cell
      | exception Not_found ->
        let cell = [| 0.; 0. |] in
        Hashtbl.add t.loss_est key cell;
        cell
    in
    let sample = if lost then 1. else 0. in
    cell.(0) <- ewma cell.(0) sample;
    cell.(1) <- cell.(1) +. 1.;
    t.node_loss_est.(i) <- ewma t.node_loss_est.(i) sample
  end

(* Per-link EWMA shrunk toward the source node's aggregate: the link's
   own observations dominate once it has a handful of samples, while a
   cold link inherits what its prober has seen elsewhere — so sparse
   workloads still warm the adaptive retry budget, and a hot lossy link
   is still distinguished from its clean siblings. *)
let estimated_loss t i j =
  if i >= 0 && i < t.n && j >= 0 && j < t.n then begin
    match Hashtbl.find t.loss_est (link_key t i j) with
    | cell ->
      let count = cell.(1) in
      let w = count /. (count +. loss_est_prior) in
      (w *. cell.(0)) +. ((1. -. w) *. t.node_loss_est.(i))
    | exception Not_found -> t.node_loss_est.(i)
  end
  else 0.

(* Smallest r such that p^(r+1) <= eps: retrying past that point buys
   residual failure probability the policy already considers acceptable. *)
let needed_retries ~loss ~target_failure =
  if loss <= target_failure then 0
  else if loss >= 1. then max_int
  else begin
    let r = ceil (log target_failure /. log loss) -. 1. in
    if Float.is_nan r || r > 1e9 then max_int else max 0 (int_of_float r)
  end

let retry_budget t i j =
  match t.config.policy with
  | Fixed | Backoff _ -> t.config.retries
  | Adaptive { target_failure; _ } ->
    min t.config.retries
      (needed_retries ~loss:(estimated_loss t i j) ~target_failure)

let policy_backoff = function
  | Fixed -> None
  | Backoff b | Adaptive { backoff = b; _ } -> Some b

let backoff_delay t ~attempt =
  if attempt <= 0 then 0.
  else begin
    match policy_backoff t.config.policy with
    | None -> 0.
    | Some b ->
      let d = b.base *. (b.factor ** float_of_int (attempt - 1)) in
      if b.delay_jitter > 0. && d > 0. then
        d *. Rng.uniform t.rng (1. -. b.delay_jitter) (1. +. b.delay_jitter)
      else d
  end
