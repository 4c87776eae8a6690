(* A single finding.  [file]/[line] come from the parser's locations, so a
   fixture linted under a virtual path reports that path. *)

type t = {
  rule : string;  (* "L1" .. "F1", "S1"/"O1"/"A1", or "parse-error" *)
  loc : Location.t;
  message : string;
}

let file t = t.loc.Location.loc_start.Lexing.pos_fname
let line t = t.loc.Location.loc_start.Lexing.pos_lnum
let start_cnum t = t.loc.Location.loc_start.Lexing.pos_cnum

let compare a b =
  match String.compare (file a) (file b) with
  | 0 -> Int.compare (start_cnum a) (start_cnum b)
  | c -> c

let to_string t =
  let col =
    t.loc.Location.loc_start.Lexing.pos_cnum
    - t.loc.Location.loc_start.Lexing.pos_bol
  in
  Printf.sprintf "%s:%d:%d: [%s] %s" (file t) (line t) col t.rule t.message
