(* The 64-bit state sits in an 8-byte buffer that draws load and store
   unboxed: a draw allocates nothing, where a mutable [int64] field
   would box every new state. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer: xor-shift-multiply mix of the advanced state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let split t = of_state (int64 t)

let int t bound =
  assert (bound > 0);
  (* 62 random bits fit OCaml's native int; modulo bias is negligible
     for the small bounds used in simulations (<< 2^32). *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  assert (bound > 0.);
  (* 53 random mantissa bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits /. 9007199254740992. *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1. < p

let gauss t ~mean ~stddev =
  (* Box–Muller; one deviate per call keeps the state trajectory simple. *)
  let u1 = 1. -. float t 1. (* avoid log 0 *)
  and u2 = float t 1. in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  assert (rate > 0.);
  let u = 1. -. float t 1. in
  -.log u /. rate

let pareto t ~shape ~scale =
  assert (shape > 0. && scale > 0.);
  let u = 1. -. float t 1. in
  scale /. (u ** (1. /. shape))

let lognormal t ~mu ~sigma = exp (gauss t ~mean:mu ~stddev:sigma)

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle ?len t a =
  let len = Option.value len ~default:(Array.length a) in
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_indices t ~n ~k =
  assert (k <= n);
  if k * 3 >= n then begin
    (* Dense: shuffle a full index array and truncate. *)
    let a = permutation t n in
    Array.sub a 0 k
  end else begin
    (* Sparse: rejection sampling into a hash table. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
