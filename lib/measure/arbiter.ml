type config = {
  capacity : float;
  rate : float;
  shares : (string * float) list;
}

let config ~capacity ~rate ~shares = { capacity; rate; shares }

let validate_config ctx c =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (ctx ^ ": " ^ m)) fmt in
  let bad v = Float.is_nan v || v < 0. in
  if bad c.capacity then fail "capacity must be non-negative, got %g" c.capacity;
  if bad c.rate then fail "rate must be non-negative, got %g" c.rate;
  if c.shares = [] then fail "at least one plane share is required";
  let seen = Hashtbl.create 8 in
  let total =
    List.fold_left
      (fun acc (plane, w) ->
        if Hashtbl.mem seen plane then fail "plane %s listed twice" plane;
        Hashtbl.replace seen plane ();
        if Float.is_nan w || w <= 0. then
          fail "share of plane %s must be positive, got %g" plane w;
        acc +. w)
      0. c.shares
  in
  List.iter
    (fun (plane, w) ->
      let carved = c.capacity *. w /. total in
      if carved < 1. then
        fail "plane %s is carved %.3f tokens of capacity — a deny-all share"
          plane carved)
    c.shares

type t = {
  carves : (string, Token_bucket.t) Hashtbl.t;
  granted : (string, int ref) Hashtbl.t;
  denied : (string, int ref) Hashtbl.t;
}

let create c =
  validate_config "Arbiter.create" c;
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. c.shares in
  let carves = Hashtbl.create 8 in
  List.iter
    (fun (plane, w) ->
      Hashtbl.replace carves plane
        (Token_bucket.create ~capacity:(c.capacity *. w /. total)
           ~rate:(c.rate *. w /. total)))
    c.shares;
  { carves; granted = Hashtbl.create 8; denied = Hashtbl.create 8 }

let bump table plane =
  match Hashtbl.find_opt table plane with
  | Some r -> incr r
  | None -> Hashtbl.replace table plane (ref 1)

let count table plane =
  match Hashtbl.find_opt table plane with Some r -> !r | None -> 0

let admit t ~now plane =
  match Hashtbl.find_opt t.carves plane with
  | None ->
    bump t.granted plane;
    true
  | Some carve ->
    let admitted = Token_bucket.take carve ~now in
    bump (if admitted then t.granted else t.denied) plane;
    admitted

let tokens t ~now plane =
  match Hashtbl.find_opt t.carves plane with
  | None -> infinity
  | Some carve ->
    Token_bucket.refill carve ~now;
    Token_bucket.tokens carve

let granted t plane = count t.granted plane
let denied t plane = count t.denied plane
