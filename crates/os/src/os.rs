//! The syscall layer — where taint enters the system.

use std::collections::{HashMap, VecDeque};

use ptaint_cpu::Cpu;
use ptaint_isa::Reg;
use ptaint_mem::WordTaint;
use ptaint_trace::Event;

use crate::faults::{IoFault, IoFaultPlan, EINTR};
use crate::journal::{DeliveredInput, JournalEntry, ReplayDivergence, SyscallJournal};
use crate::WorldConfig;

/// System call numbers (passed in `$v0`; arguments in `$a0..$a2`; result in
/// `$v0`, with `-1` for errors).
///
/// `Read` and `Recv` are the two calls the paper singles out (§4.4): every
/// byte they deliver to a user buffer is marked tainted, because it comes
/// from an external, attacker-controllable source. `Read` covers local I/O
/// (stdin and files), `Recv` network I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Sys {
    /// `exit(status)` — terminate the process.
    Exit = 1,
    /// `read(fd, buf, len) -> n` — **taints** the delivered bytes.
    Read = 3,
    /// `write(fd, buf, len) -> n`.
    Write = 4,
    /// `open(path, flags) -> fd` (flags: 0 read, 1 write/create).
    Open = 5,
    /// `close(fd)`.
    Close = 6,
    /// `brk(addr) -> break` — `addr == 0` queries the current break.
    Brk = 9,
    /// `getpid() -> pid`.
    GetPid = 20,
    /// `getuid() -> uid`.
    GetUid = 24,
    /// `socket() -> fd` — a listening TCP-style socket.
    Socket = 42,
    /// `bind(fd, port) -> 0`.
    Bind = 43,
    /// `listen(fd) -> 0`.
    Listen = 44,
    /// `accept(fd) -> connfd` — next scripted client session, `-1` when the
    /// script is exhausted.
    Accept = 45,
    /// `recv(fd, buf, len) -> n` — **taints** the delivered bytes; one
    /// scripted message per call, `0` at end of session.
    Recv = 46,
    /// `send(fd, buf, len) -> n` — appends to the session transcript.
    Send = 47,
}

impl Sys {
    /// Decodes a syscall number.
    #[must_use]
    pub fn from_number(n: u32) -> Option<Sys> {
        Some(match n {
            1 => Sys::Exit,
            3 => Sys::Read,
            4 => Sys::Write,
            5 => Sys::Open,
            6 => Sys::Close,
            9 => Sys::Brk,
            20 => Sys::GetPid,
            24 => Sys::GetUid,
            42 => Sys::Socket,
            43 => Sys::Bind,
            44 => Sys::Listen,
            45 => Sys::Accept,
            46 => Sys::Recv,
            47 => Sys::Send,
            _ => return None,
        })
    }

    /// The syscall number.
    #[must_use]
    pub const fn number(self) -> u32 {
        self as u32
    }

    /// The syscall's mnemonic name, for trace events and diagnostics.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Sys::Exit => "exit",
            Sys::Read => "read",
            Sys::Write => "write",
            Sys::Open => "open",
            Sys::Close => "close",
            Sys::Brk => "brk",
            Sys::GetPid => "getpid",
            Sys::GetUid => "getuid",
            Sys::Socket => "socket",
            Sys::Bind => "bind",
            Sys::Listen => "listen",
            Sys::Accept => "accept",
            Sys::Recv => "recv",
            Sys::Send => "send",
        }
    }
}

#[derive(Debug, Clone)]
enum Desc {
    StdIn,
    StdOut,
    StdErr,
    File {
        path: String,
        pos: usize,
        write: bool,
    },
    ListenSocket,
    Connection {
        session: usize,
    },
}

/// The runtime kernel: descriptor table, console, file system, scripted
/// network, program break.
///
/// Drive it from the CPU loop: on `StepEvent::SyscallTrap` (from
/// `ptaint-cpu`), call [`Os::handle_syscall`].
#[derive(Debug)]
pub struct Os {
    stdin: VecDeque<u8>,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    files: HashMap<String, Vec<u8>>,
    descriptors: HashMap<i32, Desc>,
    next_fd: i32,
    sessions: Vec<SessionState>,
    next_session: usize,
    brk: u32,
    uid: u32,
    exit_status: Option<i32>,
    /// Bytes tainted by the kernel on behalf of the process (for §5.4's
    /// software-overhead accounting: one extra instruction per tainted byte).
    pub tainted_input_bytes: u64,
    /// Per-name sequence numbers for taint-source labels (`read#1`, `recv#2`),
    /// only advanced while an observer is attached.
    source_seq: HashMap<&'static str, u64>,
    /// Scheduled I/O degradations (empty outside injection campaigns).
    io_faults: IoFaultPlan,
    /// Taint-delivering calls serviced so far — the index space of
    /// [`IoFaultPlan`].
    io_calls: u64,
    /// Record/replay state (off by default).
    journal: JournalMode,
    /// Scratch slot: the tainted delivery made while servicing the current
    /// call, captured by `deliver_tainted` for the recorder.
    last_delivery: Option<DeliveredInput>,
}

#[derive(Debug, Clone)]
struct SessionState {
    incoming: VecDeque<Vec<u8>>,
    sent: Vec<u8>,
}

/// Whether (and how) the kernel journals syscalls.
#[derive(Debug)]
enum JournalMode {
    /// No journalling (the default, and what forks start with).
    Off,
    /// Every serviced call is appended to the journal.
    Record(SyscallJournal),
    /// Calls are answered from the journal instead of the world; a guest
    /// call the journal did not record stops the run with a structured
    /// [`ReplayDivergence`].
    Replay {
        journal: SyscallJournal,
        cursor: usize,
        divergence: Option<ReplayDivergence>,
    },
}

impl Os {
    /// Builds the kernel from a world description. The initial program break
    /// must be set by the loader via [`Os::set_brk`].
    #[must_use]
    pub fn new(world: WorldConfig) -> Os {
        let mut descriptors = HashMap::new();
        descriptors.insert(0, Desc::StdIn);
        descriptors.insert(1, Desc::StdOut);
        descriptors.insert(2, Desc::StdErr);
        Os {
            stdin: world.stdin.into(),
            stdout: Vec::new(),
            stderr: Vec::new(),
            files: world.files,
            descriptors,
            next_fd: 3,
            sessions: world
                .sessions
                .into_iter()
                .map(|s| SessionState {
                    incoming: s.messages.into(),
                    sent: Vec::new(),
                })
                .collect(),
            next_session: 0,
            brk: 0,
            uid: world.uid,
            exit_status: None,
            tainted_input_bytes: 0,
            source_seq: HashMap::new(),
            io_faults: IoFaultPlan::new(),
            io_calls: 0,
            journal: JournalMode::Off,
            last_delivery: None,
        }
    }

    /// Forks the kernel: an independent copy of every piece of world state —
    /// descriptor table, console buffers, file system, scripted-peer
    /// cursors, program break, I/O fault plan and its call counter. Writes
    /// on either side never alias the other.
    ///
    /// Journal state is deliberately *not* inherited: record/replay is a
    /// single-timeline activity, and a fork is a new timeline. Start a new
    /// recording on the fork if needed.
    #[must_use]
    pub fn fork(&self) -> Os {
        Os {
            stdin: self.stdin.clone(),
            stdout: self.stdout.clone(),
            stderr: self.stderr.clone(),
            files: self.files.clone(),
            descriptors: self.descriptors.clone(),
            next_fd: self.next_fd,
            sessions: self.sessions.clone(),
            next_session: self.next_session,
            brk: self.brk,
            uid: self.uid,
            exit_status: self.exit_status,
            tainted_input_bytes: self.tainted_input_bytes,
            source_seq: self.source_seq.clone(),
            io_faults: self.io_faults.clone(),
            io_calls: self.io_calls,
            journal: JournalMode::Off,
            last_delivery: None,
        }
    }

    /// Switches the kernel into record mode: every subsequently serviced
    /// syscall is journalled. Replaces any previous journal state.
    pub fn start_recording(&mut self) {
        self.journal = JournalMode::Record(SyscallJournal::new());
    }

    /// Detaches the recorded journal, leaving journalling off. Returns
    /// `None` when the kernel was not recording.
    pub fn take_journal(&mut self) -> Option<SyscallJournal> {
        match std::mem::replace(&mut self.journal, JournalMode::Off) {
            JournalMode::Record(journal) => Some(journal),
            other => {
                self.journal = other;
                None
            }
        }
    }

    /// Switches the kernel into replay mode: syscalls are answered from
    /// `journal` instead of the world, byte-exactly. Replaces any previous
    /// journal state.
    pub fn start_replay(&mut self, journal: SyscallJournal) {
        self.journal = JournalMode::Replay {
            journal,
            cursor: 0,
            divergence: None,
        };
    }

    /// Takes the pending replay divergence, if the last serviced call
    /// departed from the journal. The run loop polls this after every
    /// syscall and converts it into a structured exit reason.
    pub fn take_replay_divergence(&mut self) -> Option<ReplayDivergence> {
        match &mut self.journal {
            JournalMode::Replay { divergence, .. } => divergence.take(),
            _ => None,
        }
    }

    /// Installs an I/O degradation schedule (see [`IoFaultPlan`]); replaces
    /// any previous plan. The default plan is empty.
    pub fn set_io_faults(&mut self, plan: IoFaultPlan) {
        self.io_faults = plan;
    }

    /// Taint-delivering calls (`read`/`recv` on readable descriptors)
    /// serviced so far. Campaigns use a baseline run's count to pick which
    /// call to degrade.
    #[must_use]
    pub fn io_call_count(&self) -> u64 {
        self.io_calls
    }

    /// Advances the delivery-call counter and looks up the scheduled fault.
    fn next_io_fault(&mut self) -> (u64, Option<IoFault>) {
        let idx = self.io_calls;
        self.io_calls += 1;
        (idx, self.io_faults.at(idx))
    }

    /// Books an applied I/O fault: bumps the CPU's counter, emits the
    /// `fault_injected` event, and passes `result` through to the guest.
    fn apply_io_fault(
        &mut self,
        cpu: &mut Cpu,
        idx: u64,
        fault: IoFault,
        fd: i32,
        result: i32,
    ) -> i32 {
        cpu.note_injected_fault();
        if cpu.has_observer() {
            cpu.emit_event(&Event::FaultInjected {
                kind: fault.name(),
                detail: format!("io call#{idx} fd={fd} -> {result}"),
            });
        }
        result
    }

    /// Sets the initial program break (end of loaded data, page aligned).
    pub fn set_brk(&mut self, brk: u32) {
        self.brk = brk;
    }

    /// The exit status once the process called `exit`.
    #[must_use]
    pub fn exit_status(&self) -> Option<i32> {
        self.exit_status
    }

    /// Everything written to stdout so far.
    #[must_use]
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Everything written to stderr so far.
    #[must_use]
    pub fn stderr(&self) -> &[u8] {
        &self.stderr
    }

    /// Bytes the guest sent on each network session.
    #[must_use]
    pub fn session_transcripts(&self) -> Vec<&[u8]> {
        self.sessions.iter().map(|s| s.sent.as_slice()).collect()
    }

    /// Contents of a file (including files the guest wrote).
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(Vec::as_slice)
    }

    /// Services the syscall the CPU just trapped on: reads the number from
    /// `$v0` and arguments from `$a0..$a2`, performs the call, and writes the
    /// result to `$v0` (untainted — kernel return values are trusted; only
    /// *delivered input bytes* are tainted).
    ///
    /// Unknown syscall numbers and bad descriptors return `-1` to the guest
    /// rather than stopping the simulation, like a real kernel.
    pub fn handle_syscall(&mut self, cpu: &mut Cpu) {
        let number = cpu.regs().value(Reg::V0);
        let a0 = cpu.regs().value(Reg::A0);
        let a1 = cpu.regs().value(Reg::A1);
        let a2 = cpu.regs().value(Reg::A2);

        if matches!(self.journal, JournalMode::Replay { .. }) {
            self.replay_syscall(cpu, number, [a0, a1, a2]);
            return;
        }
        self.last_delivery = None;

        let result: i32 = match Sys::from_number(number) {
            None => -1,
            Some(Sys::Exit) => {
                self.exit_status = Some(a0 as i32);
                0
            }
            Some(Sys::Read) => self.sys_read(cpu, a0 as i32, a1, a2),
            Some(Sys::Write) => self.sys_write(cpu, a0 as i32, a1, a2),
            Some(Sys::Open) => self.sys_open(cpu, a0, a1),
            Some(Sys::Close) => -i32::from(self.descriptors.remove(&(a0 as i32)).is_none()),
            Some(Sys::Brk) => {
                if a0 != 0 {
                    self.brk = a0;
                }
                self.brk as i32
            }
            Some(Sys::GetPid) => 1,
            Some(Sys::GetUid) => self.uid as i32,
            Some(Sys::Socket) => {
                let fd = self.next_fd;
                self.next_fd += 1;
                self.descriptors.insert(fd, Desc::ListenSocket);
                fd
            }
            Some(Sys::Bind | Sys::Listen) => {
                if matches!(self.descriptors.get(&(a0 as i32)), Some(Desc::ListenSocket)) {
                    0
                } else {
                    -1
                }
            }
            Some(Sys::Accept) => self.sys_accept(a0 as i32),
            Some(Sys::Recv) => self.sys_recv(cpu, a0 as i32, a1, a2),
            Some(Sys::Send) => self.sys_send(cpu, a0 as i32, a1, a2),
        };

        if let JournalMode::Record(journal) = &mut self.journal {
            journal.entries.push(JournalEntry {
                number,
                args: [a0, a1, a2],
                result,
                delivered: self.last_delivery.take(),
            });
        }

        cpu.regs_mut().set(Reg::V0, result as u32, WordTaint::CLEAN);
        if cpu.has_observer() {
            cpu.emit_event(&Event::Syscall {
                // The CPU already advanced past the trapping instruction.
                pc: cpu.pc().wrapping_sub(4),
                number,
                name: Sys::from_number(number).map_or("unknown", Sys::name),
                result,
            });
        }
    }

    /// Mirrors a parked divergence into the trace stream, when observed.
    fn emit_divergence(cpu: &Cpu, d: &ReplayDivergence) {
        if cpu.has_observer() {
            cpu.emit_event(&Event::ReplayDivergence {
                index: d.index as u64,
                expected: d.expected.clone(),
                actual: d.actual.clone(),
            });
        }
    }

    /// Services one syscall from the journal instead of the world. The
    /// guest's call must match the next recorded entry exactly (number and
    /// all three arguments); any departure — including running past the
    /// journal's end — parks a [`ReplayDivergence`] for the run loop
    /// instead of answering.
    fn replay_syscall(&mut self, cpu: &mut Cpu, number: u32, args: [u32; 3]) {
        let actual = JournalEntry {
            number,
            args,
            result: 0,
            delivered: None,
        }
        .describe();
        let JournalMode::Replay {
            journal,
            cursor,
            divergence,
        } = &mut self.journal
        else {
            unreachable!("caller checked the mode");
        };
        let index = *cursor;
        let Some(entry) = journal.entries.get(index) else {
            let d = ReplayDivergence {
                index,
                expected: "<end of journal>".to_string(),
                actual,
            };
            *divergence = Some(d.clone());
            Os::emit_divergence(cpu, &d);
            return;
        };
        if entry.number != number || entry.args != args {
            let d = ReplayDivergence {
                index,
                expected: entry.describe(),
                actual,
            };
            *divergence = Some(d.clone());
            Os::emit_divergence(cpu, &d);
            return;
        }
        let entry = entry.clone();
        *cursor += 1;

        if let Some(d) = &entry.delivered {
            // Re-serve the recorded tainted bytes at the recorded address.
            // A write fault here means guest memory diverged from the
            // recorded timeline (the recorded delivery succeeded).
            if cpu.mem_mut().write_bytes(d.buf, &d.data, true).is_err() {
                let diverged = ReplayDivergence {
                    index,
                    expected: format!("{} delivering {} bytes", entry.describe(), d.data.len()),
                    actual: format!("{actual} with a faulting buffer"),
                };
                let JournalMode::Replay { divergence, .. } = &mut self.journal else {
                    unreachable!("mode is stable across delivery");
                };
                *divergence = Some(diverged.clone());
                Os::emit_divergence(cpu, &diverged);
                return;
            }
            self.tainted_input_bytes += d.data.len() as u64;
            if cpu.has_observer() && !d.data.is_empty() {
                // Mirror `deliver_tainted`'s labelling so a traced replay
                // produces the same provenance events as the recording.
                let name: &'static str = if d.source == "recv" { "recv" } else { "read" };
                let seq = self.source_seq.entry(name).or_insert(0);
                *seq += 1;
                cpu.emit_event(&Event::TaintSource {
                    kind: "syscall",
                    label: format!("{name}#{seq} fd={}", d.fd),
                    base: d.buf,
                    len: d.data.len() as u32,
                });
            }
        }
        if Sys::from_number(number) == Some(Sys::Exit) {
            self.exit_status = Some(args[0] as i32);
        }

        cpu.regs_mut()
            .set(Reg::V0, entry.result as u32, WordTaint::CLEAN);
        if cpu.has_observer() {
            cpu.emit_event(&Event::Syscall {
                pc: cpu.pc().wrapping_sub(4),
                number,
                name: Sys::from_number(number).map_or("unknown", Sys::name),
                result: entry.result,
            });
        }
    }

    /// Copies `data` into the guest buffer **marking every byte tainted** —
    /// the kernel→user boundary of §4.4. `name`/`fd` label the taint source
    /// for provenance (e.g. `recv#2 fd=4`); the label is only built when an
    /// observer is attached.
    fn deliver_tainted(
        &mut self,
        cpu: &mut Cpu,
        buf: u32,
        data: &[u8],
        name: &'static str,
        fd: i32,
    ) -> i32 {
        match cpu.mem_mut().write_bytes(buf, data, true) {
            Ok(()) => {
                self.tainted_input_bytes += data.len() as u64;
                // Journal the delivery (empty deliveries are no-ops on
                // replay, so they are not recorded).
                if matches!(self.journal, JournalMode::Record(_)) && !data.is_empty() {
                    self.last_delivery = Some(DeliveredInput {
                        buf,
                        data: data.to_vec(),
                        source: name.to_string(),
                        fd,
                    });
                }
                if cpu.has_observer() && !data.is_empty() {
                    let seq = self.source_seq.entry(name).or_insert(0);
                    *seq += 1;
                    cpu.emit_event(&Event::TaintSource {
                        kind: "syscall",
                        label: format!("{name}#{seq} fd={fd}"),
                        base: buf,
                        len: data.len() as u32,
                    });
                }
                data.len() as i32
            }
            Err(_) => -1, // EFAULT
        }
    }

    fn sys_read(&mut self, cpu: &mut Cpu, fd: i32, buf: u32, len: u32) -> i32 {
        let len = len as usize;
        // Classify first, so the fault-plan counter only advances on calls
        // that would deliver tainted bytes.
        enum Source {
            Stdin,
            File,
            Conn(usize),
        }
        let source = match self.descriptors.get(&fd) {
            Some(Desc::StdIn) => Source::Stdin,
            Some(Desc::File { write: false, .. }) => Source::File,
            Some(Desc::Connection { session }) => Source::Conn(*session),
            _ => return -1,
        };
        if let Source::Conn(session) = source {
            return self.recv_from_session(cpu, session, buf, len, "read", fd);
        }
        let (idx, fault) = self.next_io_fault();
        match fault {
            Some(IoFault::Eintr) => self.apply_io_fault(cpu, idx, IoFault::Eintr, fd, EINTR),
            // No connection behind stdin/files: a reset degrades to a plain
            // transient error, nothing is consumed.
            Some(IoFault::Reset) => self.apply_io_fault(cpu, idx, IoFault::Reset, fd, -1),
            _ => {
                let cap = match fault.and_then(IoFault::keep) {
                    Some(keep) => len.min(keep as usize),
                    None => len,
                };
                let data = match source {
                    Source::Stdin => {
                        let take = cap.min(self.stdin.len());
                        self.stdin.drain(..take).collect::<Vec<u8>>()
                    }
                    Source::File => match self.descriptors.get_mut(&fd) {
                        Some(Desc::File { path, pos, .. }) => {
                            let Some(contents) = self.files.get(path.as_str()) else {
                                return -1;
                            };
                            let take = cap.min(contents.len().saturating_sub(*pos));
                            let data = contents[*pos..*pos + take].to_vec();
                            *pos += take;
                            data
                        }
                        _ => return -1,
                    },
                    Source::Conn(_) => unreachable!("handled above"),
                };
                let n = self.deliver_tainted(cpu, buf, &data, "read", fd);
                match fault {
                    Some(f) => self.apply_io_fault(cpu, idx, f, fd, n),
                    None => n,
                }
            }
        }
    }

    /// Appends `len` guest bytes at `buf` straight into the descriptor's
    /// sink. Like a kernel, a range that wraps or touches a non-resident
    /// page fails with `-1` (EFAULT) before anything is copied; a length
    /// past `i32::MAX` is a short write of `i32::MAX` bytes, so the count
    /// is never negative.
    fn sys_write(&mut self, cpu: &mut Cpu, fd: i32, buf: u32, len: u32) -> i32 {
        let sink = match self.descriptors.get(&fd) {
            Some(Desc::StdOut) => &mut self.stdout,
            Some(Desc::StdErr) => &mut self.stderr,
            Some(Desc::File {
                path, write: true, ..
            }) => self.files.entry(path.clone()).or_default(),
            // Hardened: a dangling session index is a guest-visible error,
            // not a host panic.
            Some(Desc::Connection { session }) => match self.sessions.get_mut(*session) {
                Some(s) => &mut s.sent,
                None => return -1,
            },
            _ => return -1,
        };
        let len = len.min(i32::MAX as u32);
        match cpu.mem().append_resident(buf, len, sink) {
            Ok(()) => len as i32,
            Err(_) => -1,
        }
    }

    fn sys_open(&mut self, cpu: &mut Cpu, path_ptr: u32, flags: u32) -> i32 {
        let path = match cpu.mem().read_cstr(path_ptr, 4096) {
            Ok(p) => match String::from_utf8(p) {
                Ok(s) => s,
                Err(_) => return -1,
            },
            Err(_) => return -1,
        };
        let write = flags & 1 != 0;
        if write {
            self.files.insert(path.clone(), Vec::new());
        } else if !self.files.contains_key(&path) {
            return -1; // ENOENT
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.descriptors.insert(
            fd,
            Desc::File {
                path,
                pos: 0,
                write,
            },
        );
        fd
    }

    fn sys_accept(&mut self, fd: i32) -> i32 {
        if !matches!(self.descriptors.get(&fd), Some(Desc::ListenSocket)) {
            return -1;
        }
        if self.next_session >= self.sessions.len() {
            return -1; // no more scripted clients
        }
        let session = self.next_session;
        self.next_session += 1;
        let conn = self.next_fd;
        self.next_fd += 1;
        self.descriptors.insert(conn, Desc::Connection { session });
        conn
    }

    fn recv_from_session(
        &mut self,
        cpu: &mut Cpu,
        session: usize,
        buf: u32,
        len: usize,
        name: &'static str,
        fd: i32,
    ) -> i32 {
        if self.sessions.get(session).is_none() {
            return -1;
        }
        let (idx, fault) = self.next_io_fault();
        let state = match self.sessions.get_mut(session) {
            Some(s) => s,
            None => return -1,
        };
        match fault {
            Some(IoFault::Eintr) => {
                return self.apply_io_fault(cpu, idx, IoFault::Eintr, fd, EINTR);
            }
            Some(IoFault::Reset) => {
                // Connection reset by peer: the rest of the scripted session
                // is gone for good.
                state.incoming.clear();
                return self.apply_io_fault(cpu, idx, IoFault::Reset, fd, -1);
            }
            _ => {}
        }
        let Some(mut msg) = state.incoming.pop_front() else {
            return 0; // orderly shutdown
        };
        let cap = match fault.and_then(IoFault::keep) {
            Some(keep) => len.min(keep as usize),
            None => len,
        };
        if msg.len() > cap {
            let rest = msg.split_off(cap);
            // Deliver the prefix now. A short read *drops* the remainder
            // (truncation); everything else requeues it (stream semantics).
            if !matches!(fault, Some(IoFault::ShortRead { .. })) {
                state.incoming.push_front(rest);
            }
        }
        let n = self.deliver_tainted(cpu, buf, &msg, name, fd);
        match fault {
            Some(f) => self.apply_io_fault(cpu, idx, f, fd, n),
            None => n,
        }
    }

    fn sys_recv(&mut self, cpu: &mut Cpu, fd: i32, buf: u32, len: u32) -> i32 {
        match self.descriptors.get(&fd) {
            Some(Desc::Connection { session }) => {
                let session = *session;
                self.recv_from_session(cpu, session, buf, len as usize, "recv", fd)
            }
            _ => -1,
        }
    }

    fn sys_send(&mut self, cpu: &mut Cpu, fd: i32, buf: u32, len: u32) -> i32 {
        match self.descriptors.get(&fd) {
            Some(Desc::Connection { .. }) => self.sys_write(cpu, fd, buf, len),
            _ => -1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_mem::MemorySystem;

    fn cpu() -> Cpu {
        Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness)
    }

    fn call(os: &mut Os, cpu: &mut Cpu, sys: Sys, a0: u32, a1: u32, a2: u32) -> i32 {
        cpu.regs_mut().set(Reg::V0, sys.number(), WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A0, a0, WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A1, a1, WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A2, a2, WordTaint::CLEAN);
        os.handle_syscall(cpu);
        cpu.regs().value(Reg::V0) as i32
    }

    const BUF: u32 = 0x1000_0000;

    #[test]
    fn read_from_stdin_taints_buffer() {
        let mut os = Os::new(WorldConfig::new().stdin(b"attack".to_vec()));
        let mut cpu = cpu();
        let n = call(&mut os, &mut cpu, Sys::Read, 0, BUF, 64);
        assert_eq!(n, 6);
        assert_eq!(cpu.mem().read_bytes(BUF, 6).unwrap(), b"attack");
        assert!(cpu.mem().read_taint(BUF, 6).unwrap().iter().all(|&t| t));
        assert_eq!(os.tainted_input_bytes, 6);
        // Second read: empty -> 0
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 0, BUF, 64), 0);
    }

    #[test]
    fn file_reads_are_tainted_and_positional() {
        let mut os = Os::new(WorldConfig::new().file("/data", b"0123456789".to_vec()));
        let mut cpu = cpu();
        // Path string in guest memory.
        cpu.mem_mut()
            .write_bytes(0x2000_0000, b"/data\0", false)
            .unwrap();
        let fd = call(&mut os, &mut cpu, Sys::Open, 0x2000_0000, 0, 0);
        assert!(fd >= 3);
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, fd as u32, BUF, 4), 4);
        assert_eq!(cpu.mem().read_bytes(BUF, 4).unwrap(), b"0123");
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, fd as u32, BUF, 100), 6);
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, fd as u32, BUF, 100), 0);
        assert!(cpu.mem().read_taint(BUF, 4).unwrap().iter().all(|&t| t));
        assert_eq!(call(&mut os, &mut cpu, Sys::Close, fd as u32, 0, 0), 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, fd as u32, BUF, 4), -1);
    }

    #[test]
    fn open_missing_file_fails() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu = cpu();
        cpu.mem_mut()
            .write_bytes(0x2000_0000, b"/nope\0", false)
            .unwrap();
        assert_eq!(call(&mut os, &mut cpu, Sys::Open, 0x2000_0000, 0, 0), -1);
    }

    #[test]
    fn file_writes_are_visible_to_host() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu = cpu();
        cpu.mem_mut()
            .write_bytes(0x2000_0000, b"/etc/passwd\0", false)
            .unwrap();
        cpu.mem_mut()
            .write_bytes(BUF, b"alice:x:0:0::/home/root:/bin/bash\n", true)
            .unwrap();
        let fd = call(&mut os, &mut cpu, Sys::Open, 0x2000_0000, 1, 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, fd as u32, BUF, 34), 34);
        assert_eq!(
            os.file("/etc/passwd").unwrap(),
            b"alice:x:0:0::/home/root:/bin/bash\n"
        );
    }

    #[test]
    fn console_output_is_captured() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu = cpu();
        cpu.mem_mut().write_bytes(BUF, b"hello\n", false).unwrap();
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, BUF, 6), 6);
        cpu.mem_mut().write_bytes(BUF, b"oops\n", false).unwrap();
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 2, BUF, 5), 5);
        assert_eq!(os.stdout(), b"hello\n");
        assert_eq!(os.stderr(), b"oops\n");
    }

    #[test]
    fn a_64_mib_write_from_a_small_buffer_faults_without_copying() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu = cpu();
        cpu.mem_mut().write_bytes(BUF, b"abcd", false).unwrap();
        let pages = cpu.mem().memory().page_count();
        // The range runs far past the one resident page: EFAULT, and the
        // sink never grows (not even its capacity).
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, BUF, 64 << 20), -1);
        assert!(os.stdout.is_empty());
        assert_eq!(os.stdout.capacity(), 0);
        assert_eq!(cpu.mem().memory().page_count(), pages);
        // A range that wraps past 0xffffffff faults the same way.
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, 0xffff_fff0, 32), -1);
        // A length past i32::MAX from a small buffer is EFAULT too.
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, BUF, u32::MAX), -1);
        // The resident part still writes normally.
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, BUF, 4), 4);
        assert_eq!(os.stdout(), b"abcd");
    }

    #[test]
    fn socket_lifecycle_and_tainted_recv() {
        let mut os = Os::new(
            WorldConfig::new()
                .session(NetSessionHelper::msgs(&[b"GET /", b"more"]))
                .session(NetSessionHelper::msgs(&[b"second client"])),
        );
        let mut cpu = cpu();
        let sock = call(&mut os, &mut cpu, Sys::Socket, 0, 0, 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Bind, sock as u32, 80, 0), 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Listen, sock as u32, 0, 0), 0);

        let c1 = call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0);
        assert!(c1 > sock);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c1 as u32, BUF, 64), 5);
        assert_eq!(cpu.mem().read_bytes(BUF, 5).unwrap(), b"GET /");
        assert!(cpu.mem().read_taint(BUF, 5).unwrap().iter().all(|&t| t));
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c1 as u32, BUF, 64), 4);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c1 as u32, BUF, 64), 0);

        // Send collects into the transcript.
        cpu.mem_mut().write_bytes(BUF, b"200 OK", false).unwrap();
        assert_eq!(call(&mut os, &mut cpu, Sys::Send, c1 as u32, BUF, 6), 6);
        assert_eq!(os.session_transcripts()[0], b"200 OK");

        let c2 = call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c2 as u32, BUF, 64), 13);
        // Script exhausted.
        assert_eq!(call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0), -1);
    }

    #[test]
    fn recv_respects_buffer_length_with_stream_semantics() {
        let mut os = Os::new(WorldConfig::new().session(NetSessionHelper::msgs(&[b"abcdefgh"])));
        let mut cpu = cpu();
        let sock = call(&mut os, &mut cpu, Sys::Socket, 0, 0, 0);
        let c = call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 3), 3);
        assert_eq!(cpu.mem().read_bytes(BUF, 3).unwrap(), b"abc");
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 5);
        assert_eq!(cpu.mem().read_bytes(BUF, 5).unwrap(), b"defgh");
    }

    #[test]
    fn io_fault_plan_degrades_stdin_reads_deterministically() {
        let mut os = Os::new(WorldConfig::new().stdin(b"abcdef".to_vec()));
        os.set_io_faults(
            IoFaultPlan::new()
                .on_call(0, IoFault::Eintr)
                .on_call(1, IoFault::ShortRead { keep: 2 }),
        );
        let mut cpu = cpu();
        // Call 0: interrupted, nothing consumed.
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 0, BUF, 64), EINTR);
        // Call 1: short read delivers 2 bytes; stdin retains the rest.
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 0, BUF, 64), 2);
        assert_eq!(cpu.mem().read_bytes(BUF, 2).unwrap(), b"ab");
        // Call 2: undegraded, drains the remainder.
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 0, BUF, 64), 4);
        assert_eq!(cpu.mem().read_bytes(BUF, 4).unwrap(), b"cdef");
        assert_eq!(os.io_call_count(), 3);
        assert_eq!(cpu.stats().injected_faults, 2);
    }

    #[test]
    fn socket_faults_truncate_fragment_and_reset() {
        let mut os =
            Os::new(WorldConfig::new().session(NetSessionHelper::msgs(&[b"abcdefgh", b"tailmsg"])));
        os.set_io_faults(
            IoFaultPlan::new()
                .on_call(0, IoFault::ShortRead { keep: 3 })
                .on_call(1, IoFault::Fragment { keep: 2 }),
        );
        let mut cpu = cpu();
        let sock = call(&mut os, &mut cpu, Sys::Socket, 0, 0, 0);
        let c = call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0);
        // Short read: 3 bytes delivered, the message's remainder is LOST.
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 3);
        assert_eq!(cpu.mem().read_bytes(BUF, 3).unwrap(), b"abc");
        // Fragment: 2 bytes now, the rest requeued (lossless).
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 2);
        assert_eq!(cpu.mem().read_bytes(BUF, 2).unwrap(), b"ta");
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 5);
        assert_eq!(cpu.mem().read_bytes(BUF, 5).unwrap(), b"ilmsg");
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 0);

        // Reset drops everything still queued on the session.
        let mut os =
            Os::new(WorldConfig::new().session(NetSessionHelper::msgs(&[b"first", b"second"])));
        os.set_io_faults(IoFaultPlan::new().on_call(0, IoFault::Reset));
        let sock = call(&mut os, &mut cpu, Sys::Socket, 0, 0, 0);
        let c = call(&mut os, &mut cpu, Sys::Accept, sock as u32, 0, 0);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, c as u32, BUF, 64), 0);
    }

    #[test]
    fn brk_queries_and_moves() {
        let mut os = Os::new(WorldConfig::new());
        os.set_brk(0x1000_8000);
        let mut cpu = cpu();
        assert_eq!(call(&mut os, &mut cpu, Sys::Brk, 0, 0, 0), 0x1000_8000);
        assert_eq!(
            call(&mut os, &mut cpu, Sys::Brk, 0x1000_9000, 0, 0),
            0x1000_9000
        );
        assert_eq!(call(&mut os, &mut cpu, Sys::Brk, 0, 0, 0), 0x1000_9000);
    }

    #[test]
    fn exit_records_status() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu = cpu();
        assert_eq!(os.exit_status(), None);
        call(&mut os, &mut cpu, Sys::Exit, 7, 0, 0);
        assert_eq!(os.exit_status(), Some(7));
    }

    #[test]
    fn misc_syscalls() {
        let mut os = Os::new(WorldConfig::new().uid(42));
        let mut cpu = cpu();
        assert_eq!(call(&mut os, &mut cpu, Sys::GetUid, 0, 0, 0), 42);
        assert_eq!(call(&mut os, &mut cpu, Sys::GetPid, 0, 0, 0), 1);
        // Unknown syscall -> -1, simulation continues.
        cpu.regs_mut().set(Reg::V0, 9999, WordTaint::CLEAN);
        os.handle_syscall(&mut cpu);
        assert_eq!(cpu.regs().value(Reg::V0) as i32, -1);
    }

    #[test]
    fn syscall_numbers_roundtrip() {
        for sys in [
            Sys::Exit,
            Sys::Read,
            Sys::Write,
            Sys::Open,
            Sys::Close,
            Sys::Brk,
            Sys::GetPid,
            Sys::GetUid,
            Sys::Socket,
            Sys::Bind,
            Sys::Listen,
            Sys::Accept,
            Sys::Recv,
            Sys::Send,
        ] {
            assert_eq!(Sys::from_number(sys.number()), Some(sys));
        }
        assert_eq!(Sys::from_number(0), None);
    }

    #[test]
    fn fork_isolates_kernel_state_both_ways() {
        let mut os = Os::new(WorldConfig::new().stdin(b"parent-bytes".to_vec()));
        os.set_brk(0x1000_8000);
        let mut cpu_p = cpu();
        let mut cpu_c = cpu_p.fork();
        let mut child = os.fork();

        // The child drains stdin and moves its break; the parent sees
        // neither.
        assert_eq!(call(&mut child, &mut cpu_c, Sys::Read, 0, BUF, 64), 12);
        call(&mut child, &mut cpu_c, Sys::Brk, 0x1000_9000, 0, 0);
        assert_eq!(call(&mut os, &mut cpu_p, Sys::Read, 0, BUF, 64), 12);
        assert_eq!(call(&mut os, &mut cpu_p, Sys::Brk, 0, 0, 0), 0x1000_8000);

        // Descriptors opened in one fork do not exist in the other.
        let mut os = Os::new(WorldConfig::new().session(NetSessionHelper::msgs(&[b"hi"])));
        let sock = call(&mut os, &mut cpu_p, Sys::Socket, 0, 0, 0);
        let mut child = os.fork();
        let conn = call(&mut child, &mut cpu_c, Sys::Accept, sock as u32, 0, 0);
        assert!(conn > sock);
        assert_eq!(
            call(&mut os, &mut cpu_p, Sys::Recv, conn as u32, BUF, 8),
            -1
        );
        // The parent can still accept the same scripted peer itself.
        assert_eq!(
            call(&mut os, &mut cpu_p, Sys::Accept, sock as u32, 0, 0),
            conn
        );
    }

    #[test]
    fn record_then_replay_is_byte_exact_without_the_world() {
        let mut os = Os::new(WorldConfig::new().stdin(b"secret".to_vec()));
        let mut cpu1 = cpu();
        os.start_recording();
        assert_eq!(call(&mut os, &mut cpu1, Sys::GetPid, 0, 0, 0), 1);
        assert_eq!(call(&mut os, &mut cpu1, Sys::Read, 0, BUF, 64), 6);
        call(&mut os, &mut cpu1, Sys::Exit, 5, 0, 0);
        let journal = os.take_journal().expect("was recording");
        assert_eq!(journal.len(), 3);

        // Replay against an EMPTY world: results and delivered bytes come
        // from the journal alone.
        let mut os2 = Os::new(WorldConfig::new());
        let mut cpu2 = cpu();
        os2.start_replay(journal);
        assert_eq!(call(&mut os2, &mut cpu2, Sys::GetPid, 0, 0, 0), 1);
        assert_eq!(call(&mut os2, &mut cpu2, Sys::Read, 0, BUF, 64), 6);
        assert_eq!(cpu2.mem().read_bytes(BUF, 6).unwrap(), b"secret");
        assert!(cpu2.mem().read_taint(BUF, 6).unwrap().iter().all(|&t| t));
        assert_eq!(os2.tainted_input_bytes, 6);
        call(&mut os2, &mut cpu2, Sys::Exit, 5, 0, 0);
        assert_eq!(os2.exit_status(), Some(5));
        assert!(os2.take_replay_divergence().is_none());
    }

    #[test]
    fn replay_diverges_on_mismatched_call_and_past_the_end() {
        let mut os = Os::new(WorldConfig::new());
        let mut cpu1 = cpu();
        os.start_recording();
        call(&mut os, &mut cpu1, Sys::GetPid, 0, 0, 0);
        let journal = os.take_journal().unwrap();

        // Different syscall number at position 0.
        let mut os2 = Os::new(WorldConfig::new());
        let mut cpu2 = cpu();
        os2.start_replay(journal.clone());
        call(&mut os2, &mut cpu2, Sys::GetUid, 0, 0, 0);
        let d = os2.take_replay_divergence().expect("must diverge");
        assert_eq!(d.index, 0);
        assert!(d.expected.contains("syscall 20"));
        assert!(d.actual.contains("syscall 24"));

        // Matching call, then one call past the journal's end.
        let mut os3 = Os::new(WorldConfig::new());
        os3.start_replay(journal);
        assert_eq!(call(&mut os3, &mut cpu2, Sys::GetPid, 0, 0, 0), 1);
        call(&mut os3, &mut cpu2, Sys::GetPid, 0, 0, 0);
        let d = os3.take_replay_divergence().expect("must diverge");
        assert_eq!(d.index, 1);
        assert_eq!(d.expected, "<end of journal>");
    }

    #[test]
    fn forks_do_not_inherit_journal_state() {
        let mut os = Os::new(WorldConfig::new());
        let mut c = cpu();
        os.start_recording();
        call(&mut os, &mut c, Sys::GetPid, 0, 0, 0);
        let mut child = os.fork();
        // The child records nothing and replays nothing.
        call(&mut child, &mut c, Sys::GetUid, 0, 0, 0);
        assert!(child.take_journal().is_none());
        assert!(child.take_replay_divergence().is_none());
        // The parent's recording is unaffected by the fork.
        assert_eq!(os.take_journal().unwrap().len(), 1);
    }

    /// Test-local shim so tests read naturally.
    struct NetSessionHelper;
    impl NetSessionHelper {
        fn msgs(msgs: &[&[u8]]) -> crate::NetSession {
            crate::NetSession::new(msgs.iter().map(|m| m.to_vec()).collect())
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_isa::Reg;
    use ptaint_mem::MemorySystem;
    use ptaint_mem::WordTaint;

    fn call(os: &mut Os, cpu: &mut Cpu, sys: Sys, a0: u32, a1: u32, a2: u32) -> i32 {
        cpu.regs_mut().set(Reg::V0, sys.number(), WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A0, a0, WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A1, a1, WordTaint::CLEAN);
        cpu.regs_mut().set(Reg::A2, a2, WordTaint::CLEAN);
        os.handle_syscall(cpu);
        cpu.regs().value(Reg::V0) as i32
    }

    #[test]
    fn io_on_wrong_descriptor_kinds_fails_cleanly() {
        let mut os = Os::new(crate::WorldConfig::new());
        let mut cpu = Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness);
        cpu.mem_mut().write_bytes(0x1000_0000, b"x", false).unwrap();
        // write to stdin, read from stdout: errors, not crashes.
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 0, 0x1000_0000, 1), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 1, 0x1000_0000, 1), -1);
        // recv on a non-socket, accept on a file.
        assert_eq!(call(&mut os, &mut cpu, Sys::Recv, 0, 0x1000_0000, 1), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Accept, 0, 0, 0), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Send, 2, 0x1000_0000, 1), -1);
        // bind/listen on a non-socket.
        assert_eq!(call(&mut os, &mut cpu, Sys::Bind, 9, 80, 0), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Listen, 9, 0, 0), -1);
        // close of a bogus fd.
        assert_eq!(call(&mut os, &mut cpu, Sys::Close, 77, 0, 0), -1);
    }

    #[test]
    fn faulting_user_buffers_return_efault() {
        let mut os = Os::new(crate::WorldConfig::new().stdin(b"abc".to_vec()));
        let mut cpu = Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness);
        // Buffer inside the guard page: EFAULT, not a host panic.
        assert_eq!(call(&mut os, &mut cpu, Sys::Read, 0, 0x10, 3), -1);
        assert_eq!(call(&mut os, &mut cpu, Sys::Write, 1, 0x10, 3), -1);
        // Path pointer inside the guard page.
        assert_eq!(call(&mut os, &mut cpu, Sys::Open, 0x10, 0, 0), -1);
    }

    #[test]
    fn writes_to_read_only_files_fail() {
        let mut os = Os::new(crate::WorldConfig::new().file("/ro", b"data".to_vec()));
        let mut cpu = Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness);
        cpu.mem_mut()
            .write_bytes(0x1000_0000, b"/ro\0", false)
            .unwrap();
        let fd = call(&mut os, &mut cpu, Sys::Open, 0x1000_0000, 0, 0);
        assert!(fd >= 3);
        assert_eq!(
            call(&mut os, &mut cpu, Sys::Write, fd as u32, 0x1000_0000, 2),
            -1
        );
    }
}
