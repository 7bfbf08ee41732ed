//! Local `crossbeam` shim: the `channel` subset the TCP runtime and wire plane use,
//! backed by `std::sync::mpsc`. Unlike mpsc, crossbeam has a single `Sender`
//! type for bounded and unbounded channels, so this wraps both in one enum.

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};

    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    enum Inner<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    pub struct Sender<T>(Inner<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Inner::Unbounded(tx) => Inner::Unbounded(tx.clone()),
                Inner::Bounded(tx) => Inner::Bounded(tx.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        /// Blocks when the channel is bounded and full, like crossbeam.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Inner::Unbounded(tx) => tx.send(msg).map_err(|e| SendError(e.0)),
                Inner::Bounded(tx) => tx.send(msg).map_err(|e| SendError(e.0)),
            }
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        pub fn try_recv(&self) -> Result<T, mpsc::TryRecvError> {
            self.0.try_recv()
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Inner::Unbounded(tx)), Receiver(rx))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Inner::Bounded(tx)), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_round_trip() {
            let (tx, rx) = unbounded();
            tx.send(5).unwrap();
            let tx2 = tx.clone();
            tx2.send(6).unwrap();
            assert_eq!(rx.recv().unwrap(), 5);
            assert_eq!(rx.recv().unwrap(), 6);
        }

        #[test]
        fn bounded_cross_thread() {
            let (tx, rx) = bounded(1);
            std::thread::spawn(move || {
                tx.send(true).unwrap();
            });
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }

        #[test]
        fn recv_on_closed_channel_errors() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)).unwrap_err(),
                RecvTimeoutError::Disconnected
            );
        }
    }
}
