(* Pending-event set: an indexed struct-of-arrays 4-ary min-heap with
   eager cancellation and a recycled payload pool.

   Heap layout.  Three parallel int arrays — [times] (ns), [orders]
   (insertion number, the tie-break) and [slots] (payload-pool slot) —
   so the sift loops compare and move unboxed integers only: no
   pointer chasing into entry records, no write barrier ([caml_modify])
   on the moves.  Pop order is the unique total order (time, then
   insertion number), so any correct heap over the same events pops
   them in the same sequence.

   Index.  [pos] maps a pending slot to its node, and every sift move
   keeps it current, so [cancel] finds its node in O(1) and sifts it
   out in O(log n).  The heap holds exactly the pending events.

   Handles and the free pool.  [add] hands out an int handle packing
   (generation lsl slot_bits) lor slot.  Freeing a slot (on cancel or
   on a pop) bumps its generation, so a stale handle is recognised in
   O(1) by a generation mismatch.  Freed slots go on a LIFO free list,
   threaded through [pos], and are reused by the next add, so
   steady-state scheduling allocates nothing on the minor heap. *)

let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type handle = int

(* Slot [slot_mask] paired with an unreachable generation ([-1] lsr
   slot_bits = 2^38-1): [cancel] and [is_live] reject it through their
   normal guards, so it needs no special-casing anywhere. *)
let null = -1

type stats = {
  adds : int;
  pops : int;
  cancels : int;
  max_size : int;
  recycled : int;
  near_pops : int;
}

type 'a t = {
  (* Heap: parallel arrays, nodes 0..size-1. *)
  mutable times : int array;
  mutable orders : int array;
  mutable slots : int array;
  mutable size : int;
  (* Payload pool, indexed by slot. *)
  mutable values : 'a array;
  mutable gens : int array;
  mutable pos : int array;  (* node of a pending slot, else free-list link *)
  mutable pool_len : int;  (* slots ever handed out *)
  mutable free_head : int;  (* LIFO free list, -1 when empty *)
  mutable filler : 'a array;  (* length 1 after the first add *)
  (* Lifetime counters.  Every add is popped, cancelled or pending, and
     takes a recycled slot or a fresh one, so [stats] derives the
     cancel and recycle counts. *)
  mutable adds : int;  (* also the next insertion number *)
  mutable pops : int;
  mutable max_size : int;
}

let create () =
  {
    times = [||];
    orders = [||];
    slots = [||];
    size = 0;
    values = [||];
    gens = [||];
    pos = [||];
    pool_len = 0;
    free_head = -1;
    filler = [||];
    adds = 0;
    pops = 0;
    max_size = 0;
  }

let stats t =
  {
    adds = t.adds;
    pops = t.pops;
    cancels = t.adds - t.pops - t.size;
    max_size = t.max_size;
    recycled = t.adds - t.pool_len;
    near_pops = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow a len capacity fill =
  let a' = Array.make capacity fill in
  Array.blit a 0 a' 0 len;
  a'

let alloc_slot t value =
  let s = t.free_head in
  if s >= 0 then begin
    t.free_head <- t.pos.(s);
    t.values.(s) <- value;
    s
  end
  else begin
    let capacity = Array.length t.gens in
    if t.pool_len = capacity then begin
      if capacity >= max_slots then
        failwith "Event_queue: more than 2^25 concurrently pending events";
      let capacity' = Stdlib.min max_slots (Stdlib.max 16 (2 * capacity)) in
      t.values <- grow t.values t.pool_len capacity' value;
      t.gens <- grow t.gens t.pool_len capacity' 0;
      t.pos <- grow t.pos t.pool_len capacity' 0;
      (* The heap never holds more nodes than the pool has slots. *)
      t.times <- grow t.times t.size capacity' 0;
      t.orders <- grow t.orders t.size capacity' 0;
      t.slots <- grow t.slots t.size capacity' 0
    end;
    let s = t.pool_len in
    t.pool_len <- s + 1;
    t.values.(s) <- value;
    s
  end

let free_slot t s =
  t.gens.(s) <- t.gens.(s) + 1;
  (* Drop the payload reference so the closure is collectable before
     the slot is next reused. *)
  t.values.(s) <- t.filler.(0);
  t.pos.(s) <- t.free_head;
  t.free_head <- s

(* Both sifts use hole insertion: displaced nodes slide into the hole
   and the moving key is written once, at its final node.  Node indices
   stay within [0, t.size) and slots within [0, t.pool_len), so the
   unsafe accesses are in bounds; the model tests in test/ drive every
   path. *)

(* (time, order) precedence.  The int annotations make these machine
   compares, as [Int.min] does in [sift_down]; unannotated [<] or
   [Stdlib.min] would call the polymorphic compare. *)
let[@inline] before (ta : int) (oa : int) tb ob =
  ta < tb || (ta = tb && oa < ob)

let[@inline] place t i time order s =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.orders i order;
  Array.unsafe_set t.slots i s;
  Array.unsafe_set t.pos s i

let[@inline] move t ~src ~dst =
  place t dst (Array.unsafe_get t.times src) (Array.unsafe_get t.orders src)
    (Array.unsafe_get t.slots src)

let rec sift_up t i time order s =
  let p = (i - 1) lsr 2 in
  if
    i > 0
    && before time order (Array.unsafe_get t.times p)
         (Array.unsafe_get t.orders p)
  then begin
    move t ~src:p ~dst:i;
    sift_up t p time order s
  end
  else place t i time order s

let rec sift_down t i time order s =
  let c = (i lsl 2) + 1 in
  if c >= t.size then place t i time order s
  else begin
    (* Smallest of the up-to-four children. *)
    let times = t.times and orders = t.orders in
    let m = ref c in
    for k = c + 1 to Int.min (c + 3) (t.size - 1) do
      if
        before (Array.unsafe_get times k) (Array.unsafe_get orders k)
          (Array.unsafe_get times !m) (Array.unsafe_get orders !m)
      then m := k
    done;
    let m = !m in
    if before (Array.unsafe_get times m) (Array.unsafe_get orders m) time order
    then begin
      move t ~src:m ~dst:i;
      sift_down t m time order s
    end
    else place t i time order s
  end

(* Remove node [i] by moving the last node into its place.  That node
   may belong above [i] (it came from another subtree) or below it, so
   it sifts up when it beats [i]'s parent and down otherwise. *)
let remove t i =
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let time = t.times.(n) and order = t.orders.(n) and s = t.slots.(n) in
    let p = (i - 1) lsr 2 in
    if i > 0 && before time order t.times.(p) t.orders.(p) then
      sift_up t i time order s
    else sift_down t i time order s
  end

let add t ~time value =
  let s = alloc_slot t value in
  if Array.length t.filler = 0 then t.filler <- [| value |];
  let order = t.adds in
  t.adds <- order + 1;
  let i = t.size in
  t.size <- i + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  sift_up t i (Simtime.to_ns time) order s;
  (t.gens.(s) lsl slot_bits) lor s

let is_live t h =
  let s = h land slot_mask in
  s < t.pool_len && t.gens.(s) = h lsr slot_bits

let cancel t h =
  if is_live t h then begin
    let s = h land slot_mask in
    remove t t.pos.(s);
    free_slot t s
  end

let next_time_ns t = if t.size = 0 then min_int else t.times.(0)

let take_exn t =
  if t.size = 0 then invalid_arg "Event_queue.take_exn: queue is empty";
  let s = t.slots.(0) in
  let value = t.values.(s) in
  remove t 0;
  free_slot t s;
  t.pops <- t.pops + 1;
  value

let pop t =
  if t.size = 0 then None
  else
    let tn = t.times.(0) in
    Some (Simtime.of_ns tn, take_exn t)

let peek_time t = if t.size = 0 then None else Some (Simtime.of_ns t.times.(0))
