(* fieldrep: command-line interface to the field-replication DBMS.

   Subcommands:
     model     - evaluate the analytical cost model at one configuration
     table     - print the paper's Figure 12 / 14 tables
     validate  - build a database, measure real I/O, compare to the model
     script    - execute an EXTRA-style statement script against a fresh db
     demo      - a short guided tour on the employee database
     master    - serve a generated database's WAL stream to replicas
     replica   - follow a master over TCP and apply its WAL stream
*)

module Db = Fieldrep.Db
module Value = Fieldrep_model.Value
module Lang = Fieldrep_query.Lang
module Params = Fieldrep_costmodel.Params
module Cost = Fieldrep_costmodel.Cost
module Sweep = Fieldrep_costmodel.Sweep
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix
module T = Fieldrep_util.Tableprint
module Stats = Fieldrep_storage.Stats
module Wal = Fieldrep_wal.Wal
module Splitmix = Fieldrep_util.Splitmix
module Repl = Fieldrep_repl.Repl
module Transport = Fieldrep_repl.Transport
module Backoff = Fieldrep_repl.Backoff

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)

let strategy_conv =
  let parse = function
    | "none" | "no-replication" -> Ok Params.No_replication
    | "inplace" | "in-place" -> Ok Params.Inplace
    | "separate" -> Ok Params.Separate
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (none|inplace|separate)" s))
  in
  let print fmt s = Format.pp_print_string fmt (Sweep.strategy_name s) in
  Arg.conv (parse, print)

let strategy =
  Arg.(
    value
    & opt strategy_conv Params.Inplace
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc:"none, inplace or separate.")

let clustered =
  Arg.(value & flag & info [ "clustered" ] ~doc:"Use clustered indexes.")

let sharing =
  Arg.(value & opt int 1 & info [ "f"; "sharing" ] ~docv:"F" ~doc:"Sharing level f.")

let s_count =
  Arg.(value & opt int 10_000 & info [ "s-count" ] ~docv:"N" ~doc:"Cardinality of S.")

let read_sel =
  Arg.(value & opt float 0.002 & info [ "fr"; "read-sel" ] ~doc:"Read selectivity f_r.")

let update_sel =
  Arg.(value & opt float 0.001 & info [ "fs"; "update-sel" ] ~doc:"Update selectivity f_s.")

let clustering_of_flag c = if c then Params.Clustered else Params.Unclustered

let backend_conv =
  let parse s =
    if s = "mem" then Ok Db.Mem
    else if s = "file" then Ok (Db.File None)
    else if String.length s > 5 && String.sub s 0 5 = "file:" then
      Ok (Db.File (Some (String.sub s 5 (String.length s - 5))))
    else Error (`Msg (Printf.sprintf "unknown backend %S (mem|file|file:DIR)" s))
  in
  let print fmt = function
    | Db.Mem -> Format.pp_print_string fmt "mem"
    | Db.File None -> Format.pp_print_string fmt "file"
    | Db.File (Some d) -> Format.fprintf fmt "file:%s" d
  in
  Arg.conv (parse, print)

let backend =
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Page-store backend: $(b,mem) (in-memory arrays), $(b,file) (real \
           files under a fresh temp directory), or $(b,file:DIR).  Defaults \
           to the FIELDREP_BACKEND environment variable, else $(b,mem).")

(* ------------------------------------------------------------------ *)
(* model                                                               *)

let model_cmd =
  let run sharing s_count read_sel update_sel clustered update_prob =
    let p =
      { Params.default with Params.sharing; s_count; read_sel; update_sel }
    in
    let clustering = clustering_of_flag clustered in
    let rows =
      List.map
        (fun strategy ->
          let r = Cost.sum (Cost.read p strategy clustering) in
          let u = Cost.sum (Cost.update p strategy clustering) in
          [
            Sweep.strategy_name strategy;
            T.fixed 1 r;
            T.fixed 1 u;
            T.fixed 1 (Cost.total p strategy clustering ~update_prob);
            (if strategy = Params.No_replication then "-"
             else
               T.pct
                 (Cost.percent_vs_no_replication p strategy clustering ~update_prob));
          ])
        [ Params.No_replication; Params.Inplace; Params.Separate ]
    in
    Printf.printf "cost model at |S|=%d f=%d fr=%g fs=%g (%s), P(update)=%g\n" s_count
      sharing read_sel update_sel
      (match clustering with Params.Clustered -> "clustered" | Params.Unclustered -> "unclustered")
      update_prob;
    T.print ~header:[ "strategy"; "C_read"; "C_update"; "C_total"; "vs none" ] rows
  in
  let update_prob =
    Arg.(value & opt float 0.1 & info [ "p"; "update-prob" ] ~doc:"Update probability.")
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Evaluate the analytical cost model (paper section 6).")
    Term.(const run $ sharing $ s_count $ read_sel $ update_sel $ clustered $ update_prob)

(* ------------------------------------------------------------------ *)
(* table                                                               *)

let table_cmd =
  let run clustered =
    let clustering = clustering_of_flag clustered in
    let cells = Sweep.table Params.default clustering in
    T.print
      ~header:[ "configuration"; "C_read"; "C_update" ]
      (List.map
         (fun c ->
           [
             Printf.sprintf "f=%d %s" c.Sweep.t_sharing (Sweep.strategy_name c.Sweep.t_strategy);
             string_of_int c.Sweep.c_read;
             string_of_int c.Sweep.c_update;
           ])
         cells)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Print the paper's Figure 12 (or, with --clustered, Figure 14).")
    Term.(const run $ clustered)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)

let validate_cmd =
  let run sharing s_count read_sel update_sel clustered strategy queries backend
      =
    let spec =
      {
        Gen.default_spec with
        Gen.sharing;
        s_count;
        strategy;
        clustering = clustering_of_flag clustered;
        backend;
      }
    in
    Printf.printf "building |S|=%d f=%d %s (%s) and measuring %d queries each...\n%!"
      s_count sharing (Sweep.strategy_name strategy)
      (if clustered then "clustered" else "unclustered")
      queries;
    let c = Mix.validate spec ~read_sel ~update_sel ~queries () in
    T.print
      ~header:[ ""; "measured"; "model" ]
      [
        [ "read I/O"; T.fixed 1 c.Mix.measured_read; T.fixed 1 c.Mix.model_read ];
        [ "update I/O"; T.fixed 1 c.Mix.measured_update; T.fixed 1 c.Mix.model_update ];
      ]
  in
  let queries =
    Arg.(value & opt int 12 & info [ "queries" ] ~doc:"Queries per measurement.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Measure real page I/O on a generated database and compare to the model.")
    Term.(
      const run $ sharing
      $ Arg.(value & opt int 2000 & info [ "s-count" ] ~docv:"N" ~doc:"Cardinality of S.")
      $ read_sel $ update_sel $ clustered $ strategy $ queries $ backend)

(* ------------------------------------------------------------------ *)
(* script                                                              *)

let script_cmd =
  let run file db_image save_image backend =
    let contents = In_channel.with_open_bin file In_channel.input_all in
    let db =
      match db_image with
      | Some path -> Db.load ?backend path
      | None -> Db.create ?backend ()
    in
    List.iter (fun o -> Format.printf "%a@." Lang.pp_outcome o) (Lang.exec_script db contents);
    match save_image with
    | Some path ->
        Db.save db path;
        Printf.printf "saved database image to %s\n" path
    | None -> ()
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Statement script.")
  in
  let db_image =
    Arg.(value & opt (some file) None & info [ "db" ] ~docv:"IMAGE" ~doc:"Open this database image instead of a fresh database.")
  in
  let save_image =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"IMAGE" ~doc:"Save the database image afterwards.")
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:"Execute an EXTRA-style statement script (optionally against / into a database image).")
    Term.(const run $ file $ db_image $ save_image $ backend)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let demo_cmd =
  let run () =
    let db = Gen.employee_db ~norgs:3 ~ndepts:8 ~nemps:60 () in
    let show stmt =
      Printf.printf "> %s\n" stmt;
      Format.printf "%a@.@." Lang.pp_outcome (Lang.exec db stmt)
    in
    Printf.printf "employee database: %d orgs, %d depts, %d employees\n\n"
      (Db.set_size db "Org") (Db.set_size db "Dept") (Db.set_size db "Emp1");
    show "replicate Emp1.dept.name";
    show "replicate Emp1.dept.org.name using separate";
    show "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) where Emp1.salary > 140000";
    show {|replace (Dept.budget = 123456) where Dept.name = "dept-03"|};
    show "retrieve (Emp1.name, Emp1.dept.org.name) where Emp1.salary > 145000";
    Db.check_integrity db;
    Printf.printf "integrity: ok\n"
  in
  Cmd.v (Cmd.info "demo" ~doc:"A short guided tour on the employee database.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* master / replica: streaming replication over TCP                    *)

let port_arg =
  Arg.(value & opt int 7199 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (on 127.0.0.1).")

(* Over real sockets a clock tick is a millisecond and setup stalls are
   legitimate (the master blocks in accept until every expected replica
   has dialed), so the CLI runs the failure detector on second-scale
   deadlines — the test-tuned defaults would false-positive during a
   multi-replica bootstrap. *)
let cli_liveness =
  { Repl.heartbeat_every = 500; suspect_after = 2_000; dead_after = 10_000 }

let master_cmd =
  let run port replicas mode ops s_count =
    let mode =
      match mode with
      | `Async -> Repl.Master.default_mode
      | `Ack -> Repl.Master.Ack
    in
    let built =
      Gen.build
        {
          Gen.default_spec with
          Gen.s_count;
          sharing = 2;
          strategy = Params.Inplace;
          page_size = 1024;
          frames = 256;
          durable = true;
        }
    in
    let db = built.Gen.db in
    let on_event line = Printf.eprintf "master: %s\n%!" line in
    let m = Repl.Master.create ~mode ~liveness:cli_liveness ~on_event db in
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listener replicas;
    Printf.printf "master: |S|=%d, listening on 127.0.0.1:%d for %d replica(s)\n%!"
      s_count port replicas;
    let peers =
      List.init replicas (fun i ->
          let fd, _ = Unix.accept listener in
          let tr = Transport.of_socket ~label:(Printf.sprintf "replica-%d" i) fd in
          let peer = Repl.Master.attach m tr in
          Printf.printf "master: replica %d attached\n%!" i;
          (tr, peer))
    in
    Unix.close listener;
    let s_oids = ref [] in
    Db.scan db ~set:"S" (fun oid _ -> s_oids := oid :: !s_oids);
    let s_oids = Array.of_list !s_oids in
    let rng = Splitmix.create 42 in
    for i = 1 to ops do
      let oid = s_oids.(Splitmix.int rng (Array.length s_oids)) in
      Db.update_field db ~set:"S" oid ~field:"repfield"
        (Value.VString (Printf.sprintf "%020d" i));
      if i mod 16 = 0 then Repl.Master.tick m
    done;
    let target =
      match Db.wal db with Some w -> Wal.last_lsn w | None -> 0L
    in
    (* Ack mode is already durable everywhere; in async mode, keep pumping
       until every live replica has acknowledged the final LSN. *)
    let deadline = Unix.gettimeofday () +. 30.0 in
    let behind () =
      List.exists
        (fun (_, p) ->
          Repl.Master.peer_alive p
          && Int64.compare (Repl.Master.acked_lsn p) target < 0)
        peers
    in
    while behind () && Unix.gettimeofday () < deadline do
      Repl.Master.tick m;
      if behind () then Unix.sleepf 0.005
    done;
    let st = Db.stats db in
    Printf.printf
      "master: %d updates at lsn %Ld; frames_shipped=%d acks_waited=%d \
       replica_lag_bytes=%d live_peers=%d\n"
      ops target st.Stats.frames_shipped st.Stats.acks_waited
      st.Stats.replica_lag_bytes (Repl.Master.peer_count m);
    List.iter (fun (tr, _) -> tr.Transport.close ()) peers
  in
  let replicas =
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc:"Replicas to wait for.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("async", `Async); ("ack", `Ack) ]) `Async
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Shipping mode: $(b,async) buffers frames, $(b,ack) blocks \
                each commit until every replica acknowledges.")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"N" ~doc:"Updates to run.")
  in
  Cmd.v
    (Cmd.info "master"
       ~doc:"Generate a database, accept replicas, and stream the WAL to \
             them while running an update workload.")
    Term.(
      const run $ port_arg $ replicas $ mode $ ops
      $ Arg.(value & opt int 500 & info [ "s-count" ] ~docv:"N" ~doc:"Cardinality of S."))

let replica_cmd =
  let run port frames redials =
    (* exponential backoff with full jitter between dial attempts, so a
       herd of replicas restarting together spreads out (one tick = 10ms) *)
    let bo = Backoff.create ~base:2 ~cap:200 ~seed:(port + (Unix.getpid () * 31)) () in
    let rec dial attempts =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Backoff.reset bo;
        Some fd
      with Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        Unix.close fd;
        if attempts <= 0 then None
        else begin
          Unix.sleepf (0.01 *. float_of_int (1 + Backoff.next_delay bo));
          dial (attempts - 1)
        end
    in
    let fd =
      match dial 50 with
      | Some fd -> fd
      | None ->
          Printf.eprintf "replica: 127.0.0.1:%d never answered\n%!" port;
          exit 1
    in
    let tr = Transport.of_socket ~label:"master" fd in
    let r = Repl.Replica.connect ~frames ~liveness:cli_liveness tr in
    Printf.printf "replica: connected to 127.0.0.1:%d, bootstrapping...\n%!" port;
    (* serve until the link dies; while the master is not known-Dead,
       redial with backoff and resume the stream from last_applied *)
    let rec serve budget =
      Repl.Replica.run r;
      if budget > 0 && Repl.Replica.master_state r <> Repl.Dead then
        match dial 20 with
        | Some fd ->
            Repl.Replica.reconnect r (Transport.of_socket ~label:"master" fd);
            Printf.printf "replica: reconnected (resuming at lsn %Ld)\n%!"
              (Repl.Replica.last_applied r);
            serve (budget - 1)
        | None -> ()
    in
    serve redials;
    let db = Repl.Replica.db r in
    let st = Db.stats db in
    Printf.printf
      "replica: stream ended at lsn %Ld (commit barrier %Ld); |S|=%d |R|=%d \
       frames_applied=%d\n"
      (Repl.Replica.last_applied r)
      (Repl.Replica.commit_lsn r)
      (Db.set_size db "S") (Db.set_size db "R") st.Stats.frames_applied;
    Db.check_integrity db;
    Printf.printf "replica: integrity ok\n"
  in
  let frames =
    Arg.(value & opt int 256 & info [ "frames" ] ~docv:"N" ~doc:"Buffer-pool frames.")
  in
  let redials =
    Arg.(
      value & opt int 0
      & info [ "redials" ] ~docv:"N"
          ~doc:"After the link dies, redial the master up to $(docv) times \
                (exponential backoff) and resume the stream.")
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:"Connect to a master on 127.0.0.1, bootstrap from its snapshot, \
             apply its WAL stream, and serve reads until the link closes.")
    Term.(const run $ port_arg $ frames $ redials)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Field replication in an object-oriented DBMS (Shekita & Carey, 1989)" in
  let info = Cmd.info "fieldrep" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            model_cmd; table_cmd; validate_cmd; script_cmd; demo_cmd;
            master_cmd; replica_cmd;
          ]))
