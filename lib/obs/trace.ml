type event = {
  time : float;
  label : string;
  message : string;
}

type t = {
  ring : event option array;
  mutable next : int;  (* write cursor *)
  mutable length : int;
  mutable dropped : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Trace.create: capacity must be >= 1 (got %d)" capacity);
  { ring = Array.make capacity None; next = 0; length = 0; dropped = 0 }

let capacity t = Array.length t.ring

let record t ~time ~label message =
  let cap = capacity t in
  if t.length = cap then t.dropped <- t.dropped + 1
  else t.length <- t.length + 1;
  t.ring.(t.next) <- Some { time; label; message };
  t.next <- (t.next + 1) mod cap

let dropped t = t.dropped

let events t =
  let cap = capacity t in
  let start = (t.next - t.length + cap) mod cap in
  List.init t.length (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)
