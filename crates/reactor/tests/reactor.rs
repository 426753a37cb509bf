//! End-to-end poller exercises over real sockets (Linux only — the CI and
//! dev targets; other platforms stub the poller out).

#![cfg(target_os = "linux")]

use emod_reactor::{EpollPoller, Event, Interest};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn wait_for(poller: &EpollPoller, token: u64, timeout: Duration) -> Option<Event> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let ev = poller.wait(Some(Duration::from_millis(50))).expect("wait");
        if let Some(ev) = ev.filter(|e| e.token == token) {
            return Some(ev);
        }
    }
    None
}

#[test]
fn accept_readiness_fires_on_connect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let poller = EpollPoller::new().unwrap();
    poller
        .register(listener.as_raw_fd(), 7, Interest::READ)
        .unwrap();
    // Nothing pending yet: a short wait returns without an event.
    assert_eq!(poller.wait(Some(Duration::from_millis(10))).unwrap(), None);
    let _client = TcpStream::connect(addr).unwrap();
    let ev = wait_for(&poller, 7, Duration::from_secs(5)).expect("listener became readable");
    assert!(ev.readable);
    let (stream, _) = listener.accept().unwrap();
    drop(stream);
}

#[test]
fn data_and_hangup_are_reported() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let poller = EpollPoller::new().unwrap();
    poller
        .register(server.as_raw_fd(), 42, Interest::READ)
        .unwrap();

    client.write_all(b"{\"cmd\":\"health\"}\n").unwrap();
    let ev = wait_for(&poller, 42, Duration::from_secs(5)).expect("data readiness");
    assert!(ev.readable);
    let mut buf = [0u8; 64];
    let n = (&server).read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"{\"cmd\":\"health\"}\n");

    poller
        .reregister(server.as_raw_fd(), 42, Interest::READ)
        .unwrap();
    drop(client);
    let ev = wait_for(&poller, 42, Duration::from_secs(5)).expect("hangup readiness");
    // Peer close surfaces as readable (read returns 0) and/or hangup.
    assert!(ev.readable || ev.hangup);
    assert_eq!((&server).read(&mut buf).unwrap(), 0);
}

#[test]
fn a_reported_descriptor_stays_quiet_until_rearmed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let poller = EpollPoller::new().unwrap();
    poller
        .register(server.as_raw_fd(), 5, Interest::READ)
        .unwrap();
    client.write_all(b"x\n").unwrap();
    assert!(wait_for(&poller, 5, Duration::from_secs(5)).is_some());
    // The bytes are still unread, yet the one-shot registration reports
    // nothing more: no second thread can be handed this descriptor.
    assert_eq!(poller.wait(Some(Duration::from_millis(50))).unwrap(), None);
    // Re-arming a descriptor that is still ready reports it again.
    poller
        .reregister(server.as_raw_fd(), 5, Interest::READ)
        .unwrap();
    let ev = wait_for(&poller, 5, Duration::from_secs(5)).expect("re-armed readiness");
    assert!(ev.readable);
}

#[test]
fn reregister_toggles_writable_interest() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let poller = EpollPoller::new().unwrap();
    poller
        .register(server.as_raw_fd(), 1, Interest::READ)
        .unwrap();
    assert_eq!(poller.wait(Some(Duration::from_millis(20))).unwrap(), None);

    // An idle socket with writable interest reports writable immediately.
    poller
        .reregister(server.as_raw_fd(), 1, Interest::READ_WRITE)
        .unwrap();
    let ev = wait_for(&poller, 1, Duration::from_secs(5)).expect("writable readiness");
    assert!(ev.writable);

    poller
        .reregister(server.as_raw_fd(), 1, Interest::READ_WRITE)
        .unwrap();
    poller.deregister(server.as_raw_fd()).unwrap();
    assert_eq!(poller.wait(Some(Duration::from_millis(20))).unwrap(), None);
}
