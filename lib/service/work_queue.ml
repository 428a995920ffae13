type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  lock : Mutex.t;
  (* Two conditions, not one: a producer waking another producer (or a
     consumer another consumer) on a full/empty transition would be a
     lost wakeup under contention. *)
  not_full : Condition.t;
  not_empty : Condition.t;
}

let create ?(capacity = 64) () =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Work_queue.create: capacity must be >= 1 (got %d)"
         capacity);
  {
    items = Queue.create ();
    capacity;
    closed = false;
    lock = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push t x =
  with_lock t (fun () ->
      while (not t.closed) && Queue.length t.items >= t.capacity do
        Condition.wait t.not_full t.lock
      done;
      if t.closed then invalid_arg "Work_queue.push: queue is closed";
      Queue.push x t.items;
      Condition.signal t.not_empty)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      match Queue.take_opt t.items with
      | Some x ->
        Condition.signal t.not_full;
        Some x
      | None -> None (* closed and drained *))

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      (* Every waiter must re-check: consumers to observe the drain,
         producers to fail their pending push. *)
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)

