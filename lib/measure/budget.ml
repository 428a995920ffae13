type config = {
  node_capacity : float;
  node_rate : float;
  global_capacity : float;
  global_rate : float;
}

let unlimited =
  {
    node_capacity = infinity;
    node_rate = infinity;
    global_capacity = infinity;
    global_rate = infinity;
  }

let per_node ~capacity ~rate =
  { unlimited with node_capacity = capacity; node_rate = rate }

type t = {
  config : config;
  nodes : Token_bucket.t array;
  global : Token_bucket.t;
}

(* A capacity below one token can never admit a probe: the bucket is a
   deny-all in disguise, which is always a config mistake. *)
let validate_config ctx config =
  let check_capacity name v =
    if Float.is_nan v || v < 1. then
      invalid_arg
        (Printf.sprintf "%s: %s must be >= 1 token (got %g)" ctx name v)
  in
  let check_rate name v =
    if Float.is_nan v || v < 0. then
      invalid_arg (Printf.sprintf "%s: %s must be >= 0 (got %g)" ctx name v)
  in
  check_capacity "node_capacity" config.node_capacity;
  check_capacity "global_capacity" config.global_capacity;
  check_rate "node_rate" config.node_rate;
  check_rate "global_rate" config.global_rate

let create config ~n =
  if n < 0 then invalid_arg "Budget.create: negative node count";
  validate_config "Budget.create" config;
  {
    config;
    nodes =
      Array.init n (fun _ ->
          Token_bucket.create ~capacity:config.node_capacity
            ~rate:config.node_rate);
    global =
      Token_bucket.create ~capacity:config.global_capacity
        ~rate:config.global_rate;
  }

let config t = t.config

let try_take t ~now i = Token_bucket.take_pair t.nodes.(i) t.global ~now

let tokens t ~now i =
  let b = t.nodes.(i) in
  Token_bucket.refill b ~now;
  Token_bucket.tokens b
