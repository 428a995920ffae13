module Pqueue = Tivaware_util.Pqueue

type t = {
  mutable clock : float;
  queue : (unit -> unit) Pqueue.t;
  mutable observers : (float -> unit) list;
}

let create () = { clock = 0.; queue = Pqueue.create (); observers = [] }

let now t = t.clock

let on_advance t f = t.observers <- t.observers @ [ f ]

let set_clock t time =
  t.clock <- time;
  List.iter (fun f -> f time) t.observers

let schedule_at t time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time t.clock);
  Pqueue.push t.queue time f

let schedule_after t delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t (t.clock +. delay) f

let schedule_every t ?start ~every f =
  if not (every > 0.) then
    invalid_arg "Sim.schedule_every: period must be positive";
  let first = match start with None -> every | Some s -> s in
  if first < 0. then invalid_arg "Sim.schedule_every: negative start";
  let rec fire () = if f () then schedule_after t every fire in
  schedule_after t first fire

let run ?until t =
  (* No limit runs everything, events at [infinity] included; a [nan]
     limit admits no event. *)
  let limit = Option.value until ~default:infinity in
  while (not (Pqueue.is_empty t.queue)) && Pqueue.min_prio t.queue <= limit do
    match Pqueue.pop t.queue with
    | Some (time, f) ->
      set_clock t time;
      f ()
    | None -> ()
  done;
  (* An infinite limit is never reached: the clock stays at the last
     event rather than jumping (and firing the observers) at infinity. *)
  match until with
  | Some limit when Float.is_finite limit && t.clock < limit -> set_clock t limit
  | _ -> ()

let work_cap = 1e7

let check_work ctx terms =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. terms in
  if not (total <= work_cap) then
    let field, _ =
      List.fold_left
        (fun (f, m) (f', w) -> if w > m || Float.is_nan w then (f', w) else (f, m))
        ("", neg_infinity) terms
    in
    invalid_arg
      (Printf.sprintf "%s: %s too large: the run would schedule %.3g events (cap %g)"
         ctx field total work_cap)
