//! Readiness-driven I/O primitives for the serve loop (DESIGN.md §6.2):
//! a poller over raw fds, a self-wakeup pipe, and the per-connection
//! frame/write state machines.
//!
//! Everything here is std-only. The kernel interfaces are reached through
//! thin `extern "C"` shims against the libc that std already links —
//! the same vendored-stand-in discipline the workspace uses for external
//! crates, applied to syscalls. On Linux the poller is **epoll**
//! (level-triggered: a token is re-reported until its fd is drained, so a
//! missed event is impossible by construction); on other unixes it falls
//! back to `poll(2)`. Windows is not supported.
//!
//! The split of responsibilities with [`crate::server`]:
//!
//! - [`Poller`] says *which fds are ready* — it never owns them;
//! - [`wake_pair`] lets worker threads (and [`crate::Server::shutdown`])
//!   interrupt a blocked [`Poller::wait`] from outside the reactor;
//! - [`FrameReader`] turns an arbitrary byte-arrival schedule into whole
//!   wire frames (a frame may trickle in one byte per readiness event);
//! - [`WriteBuf`] turns whole response frames into whatever the socket
//!   will currently accept, reporting whether interest in writability
//!   must be (re-)registered.

use std::io::{self, Read, Write};
use std::os::raw::c_int;
use std::time::Duration;

#[cfg(unix)]
use std::os::fd::RawFd;

use crate::proto;

/// Readiness interest: what the reactor wants to hear about for one fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// No readiness interest; errors and hangups are still reported.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report. `readable`/`writable` include error and hangup
/// conditions (folded into `readable` so the owner's next read observes
/// the failure and handles it on its normal path).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

// ---------------------------------------------------------------------------
// Syscall shims — Linux epoll.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    /// The kernel's `struct epoll_event`. Packed on x86 (the kernel ABI
    /// there has no padding between `events` and `data`); naturally
    /// aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }
}

// ---------------------------------------------------------------------------
// Syscall shims — portable poll(2) fallback for non-Linux unixes.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::*;
    use std::os::raw::c_short;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    pub const F_SETFL: c_int = 4;
    pub const F_GETFL: c_int = 3;
    pub const O_NONBLOCK: c_int = 0x0004; // BSD/macOS value

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Milliseconds for the kernel wait call: `None` blocks forever (-1);
/// sub-millisecond waits round up so a due timer is never spun on.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => d
            .as_millis()
            .try_into()
            .map(|ms: u64| ms.min(c_int::MAX as u64) as c_int)
            .unwrap_or(c_int::MAX)
            .max(if d.is_zero() { 0 } else { 1 }),
    }
}

// ---------------------------------------------------------------------------
// Poller — epoll backend.
// ---------------------------------------------------------------------------

/// Readiness multiplexer over raw fds. Registration maps an fd to a
/// caller-chosen `u64` token; [`Poller::wait`] reports ready tokens.
/// The poller never owns the fds it watches.
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: c_int,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut events = 0u32;
        if interest.readable {
            events |= sys::EPOLLIN;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Starts watching `fd` under `token`.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a watched fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. (Closing an fd deregisters it implicitly, but
    /// only once every duplicate is closed — the reactor always removes
    /// explicitly so a stray `try_clone` can never resurrect a token.)
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        cvt(unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Blocks until at least one watched fd is ready or `timeout`
    /// elapses, appending readiness reports to `events` (cleared first).
    /// An interrupted wait (`EINTR`) returns empty rather than erroring.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        const CAP: usize = 512;
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                buf.as_mut_ptr(),
                CAP as c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        for ev in buf.iter().take(n as usize) {
            let bits = ev.events;
            let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0 || failed,
                writable: bits & sys::EPOLLOUT != 0 || failed,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// Poller — poll(2) backend (non-Linux unix).
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
pub struct Poller {
    watched: Vec<(RawFd, u64, Interest)>,
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            watched: Vec::new(),
        })
    }

    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.watched.iter().any(|&(f, _, _)| f == fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd watched"));
        }
        self.watched.push((fd, token, interest));
        Ok(())
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        for w in &mut self.watched {
            if w.0 == fd {
                *w = (fd, token, interest);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not watched"))
    }

    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.watched.len();
        self.watched.retain(|&(f, _, _)| f != fd);
        if self.watched.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not watched"));
        }
        Ok(())
    }

    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let mut fds: Vec<sys::PollFd> = self
            .watched
            .iter()
            .map(|&(fd, _, interest)| sys::PollFd {
                fd,
                events: if interest.readable { sys::POLLIN } else { 0 }
                    | if interest.writable { sys::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len(), timeout_ms(timeout)) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        for (pf, &(_, token, _)) in fds.iter().zip(&self.watched) {
            if pf.revents == 0 {
                continue;
            }
            let failed = pf.revents & (sys::POLLERR | sys::POLLHUP) != 0;
            events.push(Event {
                token,
                readable: pf.revents & sys::POLLIN != 0 || failed,
                writable: pf.revents & sys::POLLOUT != 0 || failed,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wakeup pipe.
// ---------------------------------------------------------------------------

/// Creates a non-blocking self-wakeup pipe: the [`Waker`] end is cheap,
/// clonable, and safe to use from any thread; the [`WakeReader`] end is
/// registered in the reactor's poller and drained on every wakeup.
pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    let mut fds = [0 as c_int; 2];
    #[cfg(target_os = "linux")]
    cvt(unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) })?;
    #[cfg(all(unix, not(target_os = "linux")))]
    {
        cvt(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
        for fd in fds {
            let flags = cvt(unsafe { sys::fcntl(fd, sys::F_GETFL, 0) })?;
            cvt(unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) })?;
        }
    }
    Ok((
        Waker {
            fd: std::sync::Arc::new(PipeFd(fds[1])),
        },
        WakeReader(PipeFd(fds[0])),
    ))
}

/// An owned pipe fd, closed on drop.
struct PipeFd(c_int);

impl Drop for PipeFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

// The fd is only touched through `read`/`write`, both thread-safe.
unsafe impl Send for PipeFd {}
unsafe impl Sync for PipeFd {}

/// The writable end of a wakeup pipe.
#[derive(Clone)]
pub struct Waker {
    fd: std::sync::Arc<PipeFd>,
}

impl Waker {
    /// Interrupts a blocked [`Poller::wait`]. Never blocks: a full pipe
    /// means a wakeup is already pending, which is all a wakeup is.
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.fd.0, &byte, 1) };
    }
}

/// The readable end of a wakeup pipe.
pub struct WakeReader(PipeFd);

impl WakeReader {
    /// The fd to register in the poller (read interest).
    pub fn fd(&self) -> RawFd {
        (self.0).0
    }

    /// Consumes every pending wakeup byte so level-triggered polling
    /// stops reporting the pipe until the next [`Waker::wake`].
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read((self.0).0, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 || (n as usize) < buf.len() {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame accumulation (the read half of a connection's state machine).
// ---------------------------------------------------------------------------

/// Incremental parser of length-prefixed wire frames: bytes go in as they
/// arrive, whole frames come out. One frame may span many readiness
/// events; one event may deliver many frames.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame payload, if one has fully arrived.
    /// An announced length beyond [`proto::MAX_FRAME`] is a protocol
    /// error — the caller drops the connection, exactly as the blocking
    /// reader did.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > proto::MAX_FRAME {
            return Err(format!(
                "frame of {len} bytes exceeds the {}-byte cap",
                proto::MAX_FRAME
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------------
// Buffered writes (the write half of a connection's state machine).
// ---------------------------------------------------------------------------

/// Pending response bytes for one connection. Frames are appended whole;
/// [`WriteBuf::flush`] pushes whatever the socket will take right now.
/// A non-empty buffer after a flush is the signal to register write
/// interest and wait for the next writability event — backpressure
/// without a blocked thread.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queues one wire frame (header + payload).
    pub fn push_frame(&mut self, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes still waiting to go out.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much as the socket will accept. `Ok(true)` means the
    /// buffer drained; `Ok(false)` means the socket would block and
    /// write interest should be (re-)registered. Errors are fatal to the
    /// connection.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Reclaims consumed prefix space once it dominates the buffer, so a
    /// long-lived connection's buffer doesn't grow monotonically.
    fn compact(&mut self) {
        if self.pos > (64 << 10) && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Reads a non-blocking stream until it would block, feeding `frames`.
/// Returns `Ok(true)` if the peer cleanly closed its write side (EOF).
/// Errors are fatal to the connection.
pub fn drain_readable(
    stream: &mut impl Read,
    scratch: &mut [u8],
    frames: &mut FrameReader,
) -> io::Result<bool> {
    loop {
        match stream.read(scratch) {
            Ok(0) => return Ok(true),
            Ok(n) => frames.extend(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// Frames split at every possible byte boundary still come out whole
    /// and in order — the partial-frame half of the state machine.
    #[test]
    fn frame_reader_handles_partial_arrivals() {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, b"{\"type\":\"Ping\"}").unwrap();
        proto::write_frame(&mut wire, b"").unwrap();
        proto::write_frame(&mut wire, &vec![b'x'; 5000]).unwrap();

        for chunk in [1usize, 2, 3, 7, 4096] {
            let mut fr = FrameReader::new();
            let mut out = Vec::new();
            for piece in wire.chunks(chunk) {
                fr.extend(piece);
                while let Some(frame) = fr.next_frame().unwrap() {
                    out.push(frame);
                }
            }
            assert_eq!(out.len(), 3, "chunk size {chunk}");
            assert_eq!(out[0], b"{\"type\":\"Ping\"}");
            assert_eq!(out[1], b"");
            assert_eq!(out[2], vec![b'x'; 5000]);
            assert_eq!(fr.buffered(), 0);
        }
    }

    #[test]
    fn frame_reader_rejects_oversized_announcements() {
        let mut fr = FrameReader::new();
        fr.extend(&(proto::MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(fr.next_frame().unwrap_err().contains("cap"));
    }

    /// A full kernel send buffer turns `flush` into `Ok(false)` (register
    /// write interest) instead of a blocked thread; draining the peer
    /// lets the flush finish and the bytes arrive intact.
    #[test]
    fn write_buf_backpressures_and_resumes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let payload = vec![0xabu8; 1 << 20];
        let mut wb = WriteBuf::new();
        let mut queued = 0usize;
        // Queue frames until a flush reports backpressure.
        let drained = loop {
            wb.push_frame(&payload);
            queued += 1;
            match wb.flush(&mut tx).unwrap() {
                true if queued < 64 => continue,
                done => break done,
            }
        };
        assert!(!drained, "1 MiB frames never filled the socket buffer");
        assert!(wb.pending() > 0);

        // Drain the peer until the writer can finish.
        let mut got = 0usize;
        let mut buf = vec![0u8; 1 << 20];
        let total = queued * (payload.len() + 4);
        rx.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        while got < total {
            got += rx.read(&mut buf).unwrap();
            if wb.flush(&mut tx).unwrap() {
                // Drained: nothing left but what the peer hasn't read yet.
                assert!(wb.is_empty());
            }
        }
        assert!(wb.is_empty(), "{} bytes still pending", wb.pending());
        assert_eq!(got, total);
    }

    /// A wakeup from another thread interrupts a blocked wait, and
    /// draining stops the level-triggered re-report.
    #[test]
    fn wakeup_interrupts_a_blocked_wait() {
        let (waker, reader) = wake_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(reader.fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // No wakeup pending: times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesces; still one readable pipe
            waker
        });
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        reader.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained pipe still readable");
        drop(t.join().unwrap());
    }

    /// Poller readiness tracks socket state: a listener becomes readable
    /// on a pending connection; write interest re-registration surfaces
    /// writability exactly while wanted.
    #[test]
    fn poller_reports_socket_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();

        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let (accepted, _) = listener.accept().unwrap();

        // An idle healthy socket with write interest is instantly writable…
        poller.add(accepted.as_raw_fd(), 2, Interest::BOTH).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        // …and dropping the interest stops the reports.
        poller
            .modify(accepted.as_raw_fd(), 2, Interest::NONE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 2));

        poller.remove(accepted.as_raw_fd()).unwrap();
        drop(client);
    }
}
