(* Bench-side span recorder and the statistics the report is built from.

   A span is one wrapped call into a layer: its name, start and end on the
   monotonic clock (ns), the span that caused it, the op it belongs to, and
   the minor-heap words allocated while it ran.  Spans are kept in
   preallocated off-heap columns, so recording allocates nothing on the
   OCaml heap and the heap metrics of the untraced run are unaffected, and
   are written out once, at the end of the run.  Recording stops silently
   when the columns are full; [dropped] counts what was missed. *)

let now () = Int64.to_int (Monotonic_clock.now ())

module A = Bigarray.Array1

type col = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let col n : col =
  let a = A.create Bigarray.int Bigarray.c_layout n in
  A.fill a 0;
  a

type t = {
  mutable on : bool;
  names : (string, int) Hashtbl.t;
  labels : (int, string) Hashtbl.t;
  cap : int;
  mutable n : int;
  mutable dropped : int;
  name : col;
  start : col;
  stop : col;
  parent : col;
  op : col;
  words : col;
  mutable cur : int;  (** index of the innermost open span, or -1 *)
  mutable op_id : int;
  mutable delay_id : int;  (** self-test fixture: the call that is slowed *)
  mutable delay_ns : int;
}

let create ~cap =
  let cap = max 1 cap in
  {
    on = false;
    names = Hashtbl.create 32;
    labels = Hashtbl.create 32;
    cap;
    n = 0;
    dropped = 0;
    name = col cap;
    start = col cap;
    stop = col cap;
    parent = col cap;
    op = col cap;
    words = col cap;
    cur = -1;
    op_id = 0;
    delay_id = -1;
    delay_ns = 0;
  }

(** The id of a span name; register names once, outside the timed loop. *)
let id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.replace t.names name i;
      Hashtbl.replace t.labels i name;
      i

let name t i = Option.value ~default:"?" (Hashtbl.find_opt t.labels i)

let spin ns =
  let until = now () + ns in
  while now () < until do
    ()
  done

(** [delay t id ns] makes every call wrapped as [id] spin [ns] more, traced
    or not: the fixture that checks a slowed layer shows up where it
    should. *)
let delay t id ns =
  t.delay_id <- id;
  t.delay_ns <- ns

let run t i f =
  if i = t.delay_id then spin t.delay_ns;
  f ()

(** [span t i f] runs [f] as a span named [i] inside the innermost open
    span. *)
let span t i f =
  if (not t.on) || t.n >= t.cap then begin
    if t.on then t.dropped <- t.dropped + 1;
    run t i f
  end
  else begin
    let k = t.n in
    t.n <- k + 1;
    A.unsafe_set t.name k i;
    A.unsafe_set t.parent k t.cur;
    A.unsafe_set t.op k t.op_id;
    let outer = t.cur in
    t.cur <- k;
    let w0 = Gc.minor_words () in
    let s = now () in
    let finish () =
      let e = now () in
      A.unsafe_set t.start k s;
      A.unsafe_set t.stop k e;
      A.unsafe_set t.words k (int_of_float (Gc.minor_words () -. w0));
      t.cur <- outer
    in
    match run t i f with
    | r ->
        finish ();
        r
    | exception ex ->
        finish ();
        raise ex
  end

(** [op t i f] is a root span: a new op id, then [span]. *)
let op t i f =
  t.op_id <- t.op_id + 1;
  span t i f

(* ------------------------------------------------------------------ *)
(* Derived statistics                                                  *)

let dur t k = A.get t.stop k - A.get t.start k

let select t i ~f =
  let acc = ref [] in
  for k = t.n - 1 downto 0 do
    if A.get t.name k = i then acc := f k :: !acc
  done;
  Array.of_list !acc

(** Linear-interpolated quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let sorted_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a = quantile (sorted_floats a) 0.5

(** The highest of p99/p95/p90 with at least ten samples beyond it, as
    [(label, value)]; [("p90", q90)] when even p90 has fewer. *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  let pick =
    List.find_opt (fun (_, q) -> n *. (1.0 -. q) >= 10.0)
      [ ("p99", 0.99); ("p95", 0.95); ("p90", 0.90) ]
  in
  let label, q = Option.value pick ~default:("p90", 0.90) in
  (label, quantile sorted q)

(** p50 duration (us) and p50 allocation (words) of the spans named [i];
    zeros when the workload made no such call. *)
let p50_us t i = median (select t i ~f:(fun k -> float_of_int (dur t k) /. 1000.0))

let p50_words t i = median (select t i ~f:(fun k -> float_of_int (A.get t.words k)))

(** Time each span's direct children cover, by span index. *)
let child_time t =
  let child = Array.make t.n 0 in
  for k = 0 to t.n - 1 do
    let p = A.get t.parent k in
    if p >= 0 then child.(p) <- child.(p) + dur t k
  done;
  child

(** Share (%) of the time of the root spans whose name satisfies [is_op]
    that their direct children cover: what the per-layer table explains
    of an op. *)
let child_cover t is_op =
  let child = child_time t in
  let covered = ref 0 and total = ref 0 in
  for k = 0 to t.n - 1 do
    if A.get t.parent k < 0 && is_op (A.get t.name k) then begin
      covered := !covered + child.(k);
      total := !total + dur t k
    end
  done;
  if !total = 0 then 0.0 else 100.0 *. float_of_int !covered /. float_of_int !total

(** Write every recorded span as one tab-separated line:
    [index name start_ns end_ns parent op words]. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let names = Array.init (Hashtbl.length t.names) (name t) in
      output_string oc "span\tname\tstart_ns\tend_ns\tparent\top\twords\n";
      for k = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" k
          names.(A.get t.name k)
          (A.get t.start k) (A.get t.stop k) (A.get t.parent k) (A.get t.op k)
          (A.get t.words k)
      done)

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)

(** A growable off-heap vector of ints (latency samples in ns). *)
type samples = { mutable data : col; mutable len : int }

let samples () = { data = col 4096; len = 0 }

let push s v =
  if s.len = A.dim s.data then begin
    let bigger = col (2 * s.len) in
    A.blit s.data (A.sub bigger 0 s.len);
    s.data <- bigger
  end;
  A.unsafe_set s.data s.len v;
  s.len <- s.len + 1

(** [rescale s ~from k] multiplies the samples from index [from] on by
    [k]. *)
let rescale s ~from k =
  for i = from to s.len - 1 do
    A.unsafe_set s.data i (int_of_float (float_of_int (A.unsafe_get s.data i) *. k))
  done

(** Samples as sorted microseconds. *)
let sorted_us ss =
  let n = List.fold_left (fun acc s -> acc + s.len) 0 ss in
  let a = Array.make n 0.0 in
  let pos = ref 0 in
  List.iter
    (fun s ->
      for k = 0 to s.len - 1 do
        a.(!pos) <- float_of_int (A.get s.data k) /. 1000.0;
        incr pos
      done)
    ss;
  Array.sort Float.compare a;
  a
