module Pqueue = Tivaware_util.Pqueue

type t = {
  mutable clock : float;
  queue : (unit -> unit) Pqueue.t;
  mutable observe : float -> unit;  (* the observers, in registration order *)
}

let create () = { clock = 0.; queue = Pqueue.create (); observe = ignore }

let now t = t.clock

let on_advance t f =
  let before = t.observe in
  t.observe <- (fun time -> before time; f time)

let set_clock t time =
  t.clock <- time;
  t.observe time

(* The one admission rule for an event time: at or after now, which
   also refuses [nan] (it would sit atop the heap and stall the run). *)
let check_time fn t time =
  if not (time >= t.clock) then
    invalid_arg
      (if Float.is_nan time then Printf.sprintf "Sim.%s: time is nan" fn
       else Printf.sprintf "Sim.%s: time %g is before now %g" fn time t.clock)

let push fn t time f =
  check_time fn t time;
  Pqueue.push t.queue time f

let schedule_at = push "schedule_at"

let schedule_after t delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  push "schedule_after" t (t.clock +. delay) f

let schedule_every t ?start ~every f =
  if not (every > 0.) then
    invalid_arg "Sim.schedule_every: period must be positive";
  let first = match start with None -> every | Some s -> s in
  let rec fire () = if f () then schedule_after t every fire in
  push "schedule_every" t (t.clock +. first) fire

(* One heap entry carries the whole sequence: event [i + 1] goes back
   on the heap under the rank reserved for it when event [i] fires, so
   ties pop as if all [count] events had been pushed at registration. *)
let schedule_sequence t ~count ~time f =
  if count < 0 then
    invalid_arg (Printf.sprintf "Sim.schedule_sequence: count %d is negative" count);
  let first = Pqueue.reserve t.queue count and next = ref 0 in
  let rec step () =
    let i = !next in
    enqueue (i + 1);
    f i
  and enqueue i =
    if i < count then begin
      let at = time i in
      check_time "schedule_sequence" t at;
      next := i;
      Pqueue.push_reserved t.queue ~seq:(first + i) at step
    end
  in
  enqueue 0

let run ?until t =
  (* No limit runs everything, events at [infinity] included; a [nan]
     limit admits no event. *)
  let limit = Option.value until ~default:infinity in
  while (not (Pqueue.is_empty t.queue)) && Pqueue.min_prio t.queue <= limit do
    set_clock t (Pqueue.min_prio t.queue);
    Pqueue.pop t.queue ()
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
