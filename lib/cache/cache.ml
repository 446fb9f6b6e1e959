type mode = Off | On | Verify

let current_mode = Atomic.make Off
let set_mode m = Atomic.set current_mode m
let mode () = Atomic.get current_mode
let active () = mode () <> Off

let current_dir = Atomic.make "_cache"
let set_dir d = Atomic.set current_dir d
let dir () = Atomic.get current_dir

exception Verify_mismatch of { key : string; cached : string; fresh : string }

let disk_hits = Atomic.make 0
let misses = Atomic.make 0
let stores = Atomic.make 0
let verify_ok = Atomic.make 0
let verify_fail = Atomic.make 0

let find ~key =
  if not (active ()) then None
  else begin
    let found = Store.get ~dir:(dir ()) ~key in
    Atomic.incr (if Option.is_some found then disk_hits else misses);
    found
  end

let store ~key payload =
  if active () then begin
    Atomic.incr stores;
    Store.put ~dir:(dir ()) ~key payload
  end

let note_verify ~ok = Atomic.incr (if ok then verify_ok else verify_fail)
let memo_clear = Store.reread

type stats = {
  disk_hits : int;
  misses : int;
  stores : int;
  verify_ok : int;
  verify_fail : int;
}

let stats () =
  {
    disk_hits = Atomic.get disk_hits;
    misses = Atomic.get misses;
    stores = Atomic.get stores;
    verify_ok = Atomic.get verify_ok;
    verify_fail = Atomic.get verify_fail;
  }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ disk_hits; misses; stores; verify_ok; verify_fail ]
