type 'a t = {
  mutable capacity : int;
  items : 'a Ring.t;
  mutable drop_count : int;
  mutable peak : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Queue_drop_tail.create: capacity <= 0";
  { capacity; items = Ring.create (); drop_count = 0; peak = 0 }

let capacity t = t.capacity

let set_capacity t capacity =
  if capacity <= 0 then invalid_arg "Queue_drop_tail.set_capacity: capacity <= 0";
  t.capacity <- capacity
let length t = Ring.length t.items
let is_empty t = Ring.is_empty t.items

let enqueue t x =
  if Ring.length t.items >= t.capacity then begin
    t.drop_count <- t.drop_count + 1;
    false
  end
  else begin
    Ring.push t.items x;
    t.peak <- Int.max t.peak (Ring.length t.items);
    true
  end

let dequeue t = Ring.pop t.items
let peek t = if Ring.is_empty t.items then None else Some (Ring.peek t.items)
let drops t = t.drop_count
let peak_length t = t.peak
let clear t = Ring.clear t.items
let iter f t = Ring.iter f t.items
let filter_in_place keep t = Ring.filter_in_place keep t.items
