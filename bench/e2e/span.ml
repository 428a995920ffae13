(* Timing spans recorded by the benchmark around its calls into the
   program's layers.

   A span has a name, a start, an end, a parent and an op id.  Every
   span is folded into per-name count, total time and self time (total
   minus the time its child spans cover).  Spans whose op id is a
   multiple of [sample_every] are also kept whole, up to [sample_cap],
   so a run can dump a few complete span trees as JSONL.

   Two kinds of span keep the hot path cheap:
   - frames ([enter]/[leave]) sit on a stack and may have children;
   - leaves ([leaf]) are the hot boundaries (one backend query, one
     predictor call): the caller reads the clock around the call and
     hands both stamps over, so no frame is allocated.

   A buffer belongs to one domain.  The service workload gives every
   worker domain its own buffer and folds them together after the join
   ([absorb]). *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type fold = {
  mutable count : int;
  mutable total_ns : float;
  mutable self_ns : float;
}

type frame = {
  f_name : string;
  f_id : int;
  f_parent : int;
  f_op : int;
  f_start : float;
  mutable child_ns : float;
}

type record = {
  r_name : string;
  r_id : int;
  r_parent : int;
  r_op : int;
  r_start : float;
  r_stop : float;
}

type t = {
  folds : (string, fold) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  mutable op : int;  (** op id stamped on spans opened from now on *)
  mutable on : bool;
  mutable samples : record list;
  mutable sampled : int;
}

let sample_every = 1000
let sample_cap = 20_000

let create () =
  {
    folds = Hashtbl.create 16;
    stack = [];
    next_id = 0;
    op = 0;
    on = true;
    samples = [];
    sampled = 0;
  }

let fold t name =
  match Hashtbl.find_opt t.folds name with
  | Some f -> f
  | None ->
    let f = { count = 0; total_ns = 0.; self_ns = 0. } in
    Hashtbl.replace t.folds name f;
    f

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent_id t = match t.stack with [] -> -1 | f :: _ -> f.f_id

let keep t ~name ~id ~parent ~op ~start ~stop =
  if op mod sample_every = 0 && t.sampled < sample_cap then begin
    t.sampled <- t.sampled + 1;
    t.samples <-
      { r_name = name; r_id = id; r_parent = parent; r_op = op; r_start = start;
        r_stop = stop }
      :: t.samples
  end

let charge_parent t ns =
  match t.stack with [] -> () | f :: _ -> f.child_ns <- f.child_ns +. ns

let enter t name =
  if t.on then
    t.stack <-
      {
        f_name = name;
        f_id = fresh_id t;
        f_parent = parent_id t;
        f_op = t.op;
        f_start = now_ns ();
        child_ns = 0.;
      }
      :: t.stack

(* [leave ?name t] closes the innermost frame.  [name] relabels it: the
   store workload learns what a span covered (a read or a repair pass)
   only from the callback that ends it. *)
let leave ?name t =
  match t.stack with
  | [] -> ()
  | f :: rest ->
    let stop = now_ns () in
    t.stack <- rest;
    let name = Option.value name ~default:f.f_name in
    let total = stop -. f.f_start in
    let fd = fold t name in
    fd.count <- fd.count + 1;
    fd.total_ns <- fd.total_ns +. total;
    fd.self_ns <- fd.self_ns +. (total -. f.child_ns);
    charge_parent t total;
    keep t ~name ~id:f.f_id ~parent:f.f_parent ~op:f.f_op ~start:f.f_start ~stop

let leaf t fd name start stop =
  if t.on then begin
    let ns = stop -. start in
    fd.count <- fd.count + 1;
    fd.total_ns <- fd.total_ns +. ns;
    fd.self_ns <- fd.self_ns +. ns;
    charge_parent t ns;
    if t.op mod sample_every = 0 && t.sampled < sample_cap then
      keep t ~name ~id:(fresh_id t) ~parent:(parent_id t) ~op:t.op ~start ~stop
  end

let total_ns t name =
  match Hashtbl.find_opt t.folds name with Some f -> f.total_ns | None -> 0.

let count t name =
  match Hashtbl.find_opt t.folds name with Some f -> f.count | None -> 0

(* Fold another buffer's spans into [t] (after its domain has joined);
   its span ids are shifted past [t]'s so kept trees stay distinct. *)
let absorb t other =
  Hashtbl.iter
    (fun name o ->
      let f = fold t name in
      f.count <- f.count + o.count;
      f.total_ns <- f.total_ns +. o.total_ns;
      f.self_ns <- f.self_ns +. o.self_ns)
    other.folds;
  let shift id = if id < 0 then id else id + t.next_id in
  List.iter
    (fun r ->
      if t.sampled < sample_cap then begin
        t.sampled <- t.sampled + 1;
        t.samples <-
          { r with r_id = shift r.r_id; r_parent = shift r.r_parent } :: t.samples
      end)
    (List.rev other.samples);
  t.next_id <- t.next_id + other.next_id

let write_jsonl t ~workload oc =
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"workload\":%S,\"name\":%S,\"id\":%d,\"parent\":%d,\"op\":%d,\"start_ns\":%.0f,\"end_ns\":%.0f}\n"
        workload r.r_name r.r_id r.r_parent r.r_op r.r_start r.r_stop)
    (List.rev t.samples)
