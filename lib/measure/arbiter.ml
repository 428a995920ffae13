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

type t = { carves : (string, Token_bucket.t) Hashtbl.t }

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
  { carves }

let admit t ~now plane =
  match Hashtbl.find_opt t.carves plane with
  | None -> true
  | Some carve -> Token_bucket.take carve ~now
