type counter = { c_live : bool; c_name : string; mutable count : int }
type gauge = { g_live : bool; g_name : string; mutable value : float }

(* All floats, so the record stores them unboxed and a sample updates
   them in place. *)
type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type histogram = {
  h_live : bool;
  h_name : string;
  mutable n : int;
  m : moments;
  buckets : int array;  (* indexed by binary exponent + exponent_bias *)
}

(* Declared in the order a name shared by two kinds renders. *)
type instrument = Histogram of histogram | Gauge of gauge | Counter of counter

module Names = Hashtbl.Make (String)

(* Each kind is indexed by name for lookup; [all] lists every
   instrument for rendering, which sorts its first [count] in place. *)
type t = {
  live : bool;
  mutable all : instrument array;
  mutable count : int;
  counter_ix : counter Names.t;
  gauge_ix : gauge Names.t;
  histogram_ix : histogram Names.t;
}

let make live =
  {
    live;
    all = [||];
    count = 0;
    counter_ix = Names.create 64;
    gauge_ix = Names.create 8;
    histogram_ix = Names.create 8;
  }

let create () = make true
let disabled = make false
let enabled t = t.live

(* Buckets cover 2^-32 .. 2^31; everything outside clamps to the end
   buckets, and non-positive samples land in bucket 0. *)
let exponent_bias = 32
let bucket_count = 64

(* [Float.frexp]'s exponent of a positive normal float is its biased
   exponent field minus 1022; read from the bits, it costs no
   allocation.  Subnormals, infinities and NaN (field 0 or 2047) ask
   [frexp] itself, so they keep the bucket it gives them. *)
let[@inline] bucket_of v =
  if v <= 0.0 then 0
  else
    let field =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
      land 0x7ff
    in
    let e =
      if field = 0 || field = 0x7ff then snd (Float.frexp v) else field - 1022
    in
    Int.max 0 (Int.min (bucket_count - 1) (e + exponent_bias))

(* 64 slots hold the 58 instruments of a WAN EBSN run. *)
let register t inst =
  if t.count = Array.length t.all then begin
    let bigger = Array.make (Int.max 64 (2 * t.count)) inst in
    Array.blit t.all 0 bigger 0 t.count;
    t.all <- bigger
  end;
  t.all.(t.count) <- inst;
  t.count <- t.count + 1

(* Instruments of the disabled registry ignore every update, so one of
   each kind serves every name. *)
let off_counter = { c_live = false; c_name = ""; count = 0 }
let off_gauge = { g_live = false; g_name = ""; value = 0.0 }

let off_histogram =
  {
    h_live = false;
    h_name = "";
    n = 0;
    m = { sum = 0.0; lo = 0.0; hi = 0.0 };
    buckets = [||];
  }

let counter t name =
  if not t.live then off_counter
  else
    match Names.find t.counter_ix name with
    | c -> c
    | exception Not_found ->
      let c = { c_live = true; c_name = name; count = 0 } in
      Names.add t.counter_ix name c;
      register t (Counter c);
      c

let gauge t name =
  if not t.live then off_gauge
  else
    match Names.find t.gauge_ix name with
    | g -> g
    | exception Not_found ->
      let g = { g_live = true; g_name = name; value = 0.0 } in
      Names.add t.gauge_ix name g;
      register t (Gauge g);
      g

let histogram t name =
  if not t.live then off_histogram
  else
    match Names.find t.histogram_ix name with
    | h -> h
    | exception Not_found ->
      let h =
        {
          h_live = true;
          h_name = name;
          n = 0;
          m = { sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity };
          buckets = Array.make bucket_count 0;
        }
      in
      Names.add t.histogram_ix name h;
      register t (Histogram h);
      h

let[@inline] incr c = if c.c_live then c.count <- c.count + 1
let[@inline] add c n = if c.c_live then c.count <- c.count + n
let[@inline] set g v = if g.g_live then g.value <- v

let[@inline] observe h v =
  if h.h_live then begin
    h.n <- h.n + 1;
    let m = h.m in
    m.sum <- m.sum +. v;
    if v < m.lo then m.lo <- v;
    if v > m.hi then m.hi <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

(* Converts only on a live histogram: a caller passing
   [float_of_int n] to [observe] boxes the float before the call, even
   when the histogram is disabled. *)
let[@inline] observe_int h n = if h.h_live then observe h (float_of_int n)

let name_of = function
  | Histogram h -> h.h_name
  | Gauge g -> g.g_name
  | Counter c -> c.c_name

let rank = function Histogram _ -> 0 | Gauge _ -> 1 | Counter _ -> 2

let compare_instruments a b =
  match String.compare (name_of a) (name_of b) with
  | 0 -> Int.compare (rank a) (rank b)
  | c -> c

(* Insertion sort: a run registers a few dozen instruments, and the
   library sorts allocate their closures and temporaries. *)
let sort a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_instruments a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* [,"b<k>":] for every bucket, rendered once. *)
let bucket_keys =
  Array.init bucket_count (fun b -> Printf.sprintf ",\"b%d\":" (b - exponent_bias))

(* [head] closes the name's string and opens the first value. *)
let start buf name head =
  Buffer.add_string buf "{\"metric\":\"";
  Jsonl.escape buf name;
  Buffer.add_string buf head

let render buf = function
  | Counter c ->
    start buf c.c_name "\",\"type\":\"counter\",\"value\":";
    Jsonl.add_int buf c.count;
    Buffer.add_string buf "}\n"
  | Gauge g ->
    start buf g.g_name "\",\"type\":\"gauge\",\"value\":";
    Jsonl.add_float buf g.value;
    Buffer.add_string buf "}\n"
  | Histogram h ->
    start buf h.h_name "\",\"type\":\"histogram\",\"count\":";
    Jsonl.add_int buf h.n;
    Buffer.add_string buf ",\"sum\":";
    Jsonl.add_float buf h.m.sum;
    if h.n > 0 then begin
      Buffer.add_string buf ",\"min\":";
      Jsonl.add_float buf h.m.lo;
      Buffer.add_string buf ",\"max\":";
      Jsonl.add_float buf h.m.hi
    end;
    for b = 0 to bucket_count - 1 do
      let k = h.buckets.(b) in
      if k > 0 then begin
        Buffer.add_string buf bucket_keys.(b);
        Jsonl.add_int buf k
      end
    done;
    Buffer.add_string buf "}\n"

let to_jsonl t =
  if not t.live then ""
  else begin
    sort t.all t.count;
    let buf = Buffer.create 4096 in
    for i = 0 to t.count - 1 do
      render buf t.all.(i)
    done;
    Buffer.contents buf
  end
