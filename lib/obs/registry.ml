type counter = { c_live : bool; c_name : string; mutable count : int }
type gauge = { g_live : bool; g_name : string; mutable value : float }

type histogram = {
  h_live : bool;
  h_name : string;
  mutable n : int;
  mutable sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : int array;  (* indexed by binary exponent + exponent_bias *)
}

module Names = Hashtbl.Make (String)

(* Each kind is indexed by name for lookup and listed in registration
   order for rendering. *)
type t = {
  live : bool;
  mutable counters : counter list;  (* registration order; rendered sorted *)
  mutable gauges : gauge list;
  mutable histograms : histogram list;
  counter_ix : counter Names.t;
  gauge_ix : gauge Names.t;
  histogram_ix : histogram Names.t;
}

let make live n =
  {
    live;
    counters = [];
    gauges = [];
    histograms = [];
    counter_ix = Names.create n;
    gauge_ix = Names.create n;
    histogram_ix = Names.create n;
  }

let create () = make true 64
let disabled = make false 1
let enabled t = t.live

(* Buckets cover 2^-32 .. 2^31; everything outside clamps to the end
   buckets, and non-positive samples land in bucket 0. *)
let exponent_bias = 32
let bucket_count = 64

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    Stdlib.max 0 (Stdlib.min (bucket_count - 1) (e + exponent_bias))

let counter t name =
  if not t.live then { c_live = false; c_name = name; count = 0 }
  else
    match Names.find_opt t.counter_ix name with
    | Some c -> c
    | None ->
      let c = { c_live = true; c_name = name; count = 0 } in
      Names.add t.counter_ix name c;
      t.counters <- c :: t.counters;
      c

let gauge t name =
  if not t.live then { g_live = false; g_name = name; value = 0.0 }
  else
    match Names.find_opt t.gauge_ix name with
    | Some g -> g
    | None ->
      let g = { g_live = true; g_name = name; value = 0.0 } in
      Names.add t.gauge_ix name g;
      t.gauges <- g :: t.gauges;
      g

let histogram t name =
  if not t.live then
    {
      h_live = false;
      h_name = name;
      n = 0;
      sum = 0.0;
      h_min = 0.0;
      h_max = 0.0;
      buckets = [||];
    }
  else
    match Names.find_opt t.histogram_ix name with
    | Some h -> h
    | None ->
      let h =
        {
          h_live = true;
          h_name = name;
          n = 0;
          sum = 0.0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          buckets = Array.make bucket_count 0;
        }
      in
      Names.add t.histogram_ix name h;
      t.histograms <- h :: t.histograms;
      h

let[@inline] incr c = if c.c_live then c.count <- c.count + 1
let[@inline] add c n = if c.c_live then c.count <- c.count + n
let[@inline] set g v = if g.g_live then g.value <- v

let[@inline] observe h v =
  if h.h_live then begin
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

(* Converts only on a live histogram: a caller passing
   [float_of_int n] to [observe] boxes the float before the call, even
   when the histogram is disabled. *)
let[@inline] observe_int h n = if h.h_live then observe h (float_of_int n)

let to_jsonl t =
  if not t.live then ""
  else begin
    let open Jsonl in
    let lines = ref [] in
    List.iter
      (fun c ->
        lines :=
          ( c.c_name,
            line
              [
                ("metric", Str c.c_name);
                ("type", Str "counter");
                ("value", Int c.count);
              ] )
          :: !lines)
      t.counters;
    List.iter
      (fun g ->
        lines :=
          ( g.g_name,
            line
              [
                ("metric", Str g.g_name);
                ("type", Str "gauge");
                ("value", Float g.value);
              ] )
          :: !lines)
      t.gauges;
    List.iter
      (fun h ->
        let base =
          [
            ("metric", Str h.h_name);
            ("type", Str "histogram");
            ("count", Int h.n);
            ("sum", Float h.sum);
          ]
        in
        let extremes =
          if h.n = 0 then []
          else [ ("min", Float h.h_min); ("max", Float h.h_max) ]
        in
        let buckets = ref [] in
        for b = bucket_count - 1 downto 0 do
          if h.buckets.(b) > 0 then
            buckets :=
              (Printf.sprintf "b%d" (b - exponent_bias), Int h.buckets.(b))
              :: !buckets
        done;
        lines := (h.h_name, line (base @ extremes @ !buckets)) :: !lines)
      t.histograms;
    !lines
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd
    |> String.concat ""
  end
