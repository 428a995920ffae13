module Rng = Tivaware_util.Rng

type diurnal = {
  period : float;
  loss_amplitude : float;
  jitter_amplitude : float;
  phase : float;
}

let default_diurnal =
  { period = 240.; loss_amplitude = 0.8; jitter_amplitude = 0.8; phase = 0. }

type route_flap = {
  rate : float;
  max_extra : float;
}

let default_route_flap = { rate = 0.01; max_extra = 50. }

type config = {
  diurnal : diurnal option;
  route_flap : route_flap option;
  seed : int;
}

let default = { diurnal = None; route_flap = None; seed = 0 }

let validate_config ctx c =
  (match c.diurnal with
  | None -> ()
  | Some d ->
    if Float.is_nan d.period || d.period <= 0. then
      invalid_arg
        (Printf.sprintf "%s: diurnal period must be > 0 s (got %g)" ctx d.period);
    let amp name v =
      if Float.is_nan v || v < 0. || v > 1. then
        invalid_arg
          (Printf.sprintf "%s: diurnal %s must be in [0, 1] (got %g)" ctx name v)
    in
    amp "loss_amplitude" d.loss_amplitude;
    amp "jitter_amplitude" d.jitter_amplitude;
    if not (Float.is_finite d.phase) then
      invalid_arg
        (Printf.sprintf "%s: diurnal phase must be finite (got %g)" ctx d.phase));
  match c.route_flap with
  | None -> ()
  | Some rf ->
    if (not (Float.is_finite rf.rate)) || rf.rate < 0. then
      invalid_arg
        (Printf.sprintf "%s: route_flap rate must be finite and >= 0 /s (got %g)"
           ctx rf.rate);
    if (not (Float.is_finite rf.max_extra)) || rf.max_extra < 0. then
      invalid_arg
        (Printf.sprintf
           "%s: route_flap max_extra must be finite and >= 0 ms (got %g)" ctx
           rf.max_extra)

(* A link's whole route-change schedule flows from its own generator,
   so the extra delay in force at time T is a pure function of
   (seed, i, j, T) no matter when the link was first probed or how the
   clock stepped to T. *)
type flap_state = {
  rng : Rng.t;
  mutable extra : float;  (* current route detour, ms *)
  mutable next : float;  (* absolute time of the next route change *)
}

type t = {
  config : config;
  base : Profile.t;
  mutable time : float;
  flaps : (int * int, flap_state) Hashtbl.t;
  mutable route_changes : int;
}

let create ?(config = default) base =
  validate_config "Dynamics.create" config;
  { config; base; time = 0.; flaps = Hashtbl.create 64; route_changes = 0 }

let config t = t.config

let advance_to t time = if time > t.time then t.time <- time

let route_changes t = t.route_changes

let tau = 2. *. Float.pi

(* Multiplicative sinusoid; no randomness, so zero amplitude leaves the
   base parameter bit-identical (the [amp <= 0.] branch never touches
   it) and two engines sharing a clock see the same conditions. *)
let scaled d ~amp ~cap v time =
  if amp <= 0. || v <= 0. then v
  else begin
    let x = v *. (1. +. (amp *. sin (tau *. ((time +. d.phase) /. d.period)))) in
    (* Clamped so that even a NaN (an infinite clock) lands in range. *)
    if x >= cap then cap else if x > 0. then x else 0.
  end

let flap_state t rf i j =
  match Hashtbl.find_opt t.flaps (i, j) with
  | Some st -> st
  | None ->
    let rng = Rng.create ((((t.config.seed * 37) + i) * 1_000_003) + j) in
    let st = { rng; extra = 0.; next = Rng.exponential rng ~rate:rf.rate } in
    Hashtbl.add t.flaps (i, j) st;
    st

let step_flap t rf st =
  while st.next <= t.time do
    st.extra <- Rng.float st.rng rf.max_extra;
    t.route_changes <- t.route_changes + 1;
    st.next <- st.next +. Rng.exponential st.rng ~rate:rf.rate
  done

(* The view checks nothing per link: its output is in range at every
   time because its inputs are.  The base profile is valid by
   construction (a [Profile.make] base checks each link as it is read
   here), and [validate_config] has accepted the config.  Diurnal
   scaling leaves a zero rate alone and clamps a scaled one, loss into
   [0, 1] and jitter into [0, 0.95]; outage is untouched.  A route flap
   only adds a detour drawn from [0, max_extra), which is
   non-negative. *)
let conditions t i j =
  let l = Profile.link t.base i j in
  let l =
    match t.config.diurnal with
    | None -> l
    | Some d ->
      {
        l with
        Profile.loss =
          scaled d ~amp:d.loss_amplitude ~cap:1. l.Profile.loss t.time;
        jitter =
          scaled d ~amp:d.jitter_amplitude ~cap:0.95 l.Profile.jitter t.time;
      }
  in
  match t.config.route_flap with
  (* Before the clock first moves no route event can have fired (event
     times are strictly positive almost surely), so skipping the state
     machine keeps time-0 lookups from materializing link streams. *)
  | None -> l
  | Some rf when rf.rate <= 0. || rf.max_extra <= 0. || t.time <= 0. -> l
  | Some rf ->
    let st = flap_state t rf i j in
    step_flap t rf st;
    if st.extra > 0. then
      { l with Profile.extra_delay = l.Profile.extra_delay +. st.extra }
    else l

let link t i j = if i = j then Profile.clean else conditions t i j
