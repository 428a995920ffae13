module Rng = Tivaware_util.Rng

type link = {
  loss : float;
  jitter : float;
  outage : float;
  extra_delay : float;
}

let clean = { loss = 0.; jitter = 0.; outage = 0.; extra_delay = 0. }

type t =
  | Uniform of link
  | Fn of (int -> int -> link)

let link t i j =
  match t with
  | Uniform l -> l
  | Fn f -> if i = j then clean else f i j

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(* Every profile is valid by construction, so the injector never scans
   links: [uniform], [topology] and [random] check what they are built
   from once, and a [make] function is checked on each link it yields.
   The first out-of-range field, if any; the valid path allocates
   nothing and formats no message. *)
let bad_field l =
  if Float.is_nan l.loss || l.loss < 0. || l.loss > 1. then
    Some ("loss", "must be in [0, 1]", l.loss)
  else if Float.is_nan l.jitter || l.jitter < 0. || l.jitter >= 1. then
    Some ("jitter", "must be in [0, 1)", l.jitter)
  else if Float.is_nan l.outage || l.outage < 0. || l.outage > 1. then
    Some ("outage", "must be in [0, 1]", l.outage)
  else if (not (Float.is_finite l.extra_delay)) || l.extra_delay < 0. then
    Some ("extra_delay", "must be finite and >= 0 ms", l.extra_delay)
  else None

let fail ctx what (field, cond, v) =
  invalid_arg (Printf.sprintf "%s: %s: %s %s (got %g)" ctx what field cond v)

let validate_link ctx ~id l =
  match bad_field l with None -> () | Some bad -> fail ctx ("link " ^ id) bad

let uniform ?(name = "uniform") l =
  validate_link "Profile.uniform" ~id:(name ^ " (all links)") l;
  Uniform l

let of_rates ~loss ~jitter = uniform { clean with loss; jitter }

let make name f =
  let ctx = "Profile " ^ name in
  let checked i j =
    let l = f i j in
    match bad_field l with
    | None -> l
    | Some bad -> fail ctx (Printf.sprintf "link %d->%d" i j) bad
  in
  Fn checked

(* ------------------------------------------------------------------ *)
(* Topology-derived profile                                            *)

(* Link classes mirror Tivaware_topology.Generator.link_class without a
   dependency on the topology library: the caller hands us its cluster
   labels ([-1] = noise host). *)
let class_of_labels cluster_of i j =
  let ci = cluster_of.(i) and cj = cluster_of.(j) in
  if ci < 0 || cj < 0 then `Access
  else if ci = cj then `Intra
  else `Inter

(* Scaling factors chosen so a topology profile with base rates
   (loss, jitter) concentrates loss on access links of poorly-connected
   hosts and jitter on long-haul inter-cluster paths, while keeping the
   same order of magnitude as the uniform profile with equal bases. *)
let topology ~loss ~jitter ~cluster_of () =
  let n = Array.length cluster_of in
  let access = { clean with loss = Float.min 0.95 (3. *. loss); jitter } in
  let inter =
    { clean with loss = loss /. 2.; jitter = Float.min 0.9 (2. *. jitter) }
  in
  let intra = { clean with loss = loss /. 4.; jitter = jitter /. 4. } in
  validate_link "Profile.topology" ~id:"class access" access;
  validate_link "Profile.topology" ~id:"class inter" inter;
  validate_link "Profile.topology" ~id:"class intra" intra;
  (* Every link is one of the three checked classes (or [clean]). *)
  let classify i j =
    if i < 0 || i >= n || j < 0 || j >= n then clean
    else begin
      match class_of_labels cluster_of i j with
      | `Access -> access
      | `Inter -> inter
      | `Intra -> intra
    end
  in
  Fn classify

(* ------------------------------------------------------------------ *)
(* Seeded-random heterogeneous profile                                 *)

(* Every directed link owns an independent deterministic stream derived
   from (seed, i, j), so link parameters do not depend on the order in
   which links are queried and two profiles with the same seed agree
   link for link. *)
let link_rng ~seed i j = Rng.create ((((seed * 31) + i) * 1_000_003) + j)

let random ?(outage = 0.) ~loss ~jitter ~seed () =
  (* The bases share a link's ranges, and every draw below stays in
     them: loss and jitter are clamped, outage is 0 or 1. *)
  (match bad_field { clean with loss; jitter; outage } with
  | None -> ()
  | Some bad -> fail "Profile.random" "base" bad);
  let draw_link i j =
    let r = link_rng ~seed i j in
    (* Uniform in [0, 2 * base): mean equals the base rate, so sweeps
       against the uniform profile compare equal average severity.
       Zero bases draw nothing and stay exactly zero. *)
    let draw base = if base > 0. then Rng.float r (2. *. base) else 0. in
    let loss = Float.min 0.95 (draw loss) in
    let jitter = Float.min 0.9 (draw jitter) in
    let down = outage > 0. && Rng.float r 1. < outage in
    { clean with loss; jitter; outage = (if down then 1. else 0.) }
  in
  Fn draw_link
