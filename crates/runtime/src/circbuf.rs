//! Bounded circular buffers for concurrent networking and aggregation.
//!
//! Paper §3: "We use Circular Buffers for concurrent networking and
//! aggregation while each corresponding thread deals with smaller
//! portions of data. ... The networking threads are data producers, while
//! the aggregation threads are the consumers." The bound keeps the memory
//! needed for aggregating partial results from many sources small while
//! still overlapping communication with computation.
//!
//! Sigma does not use one: the wire's delivering thread stages each
//! stream into Sigma itself, so no chunk is handed between threads.
//! The buffer stays public as the measured hand-off primitive.

use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};

/// A bounded, blocking, multi-producer multi-consumer ring buffer.
///
/// `push` blocks while the buffer is full; `pop` blocks while it is empty
/// and the buffer is not closed. After [`CircularBuffer::close`], pushes
/// are rejected and pops drain the remaining items then return `None`.
///
/// # Examples
///
/// ```
/// use cosmic_runtime::CircularBuffer;
///
/// let buf = CircularBuffer::with_capacity(2);
/// assert!(buf.push(1));
/// assert!(buf.push(2));
/// assert_eq!(buf.pop(), Some(1));
/// buf.close();
/// assert!(!buf.push(3));
/// assert_eq!(buf.pop(), Some(2));
/// assert_eq!(buf.pop(), None);
/// ```
#[derive(Debug)]
pub struct CircularBuffer<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> CircularBuffer<T> {
    /// Creates a buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "circular buffer capacity must be positive");
        CircularBuffer {
            state: Mutex::new(State { queue: VecDeque::with_capacity(capacity), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Current item count.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Pushes an item, blocking while full. Returns `false` (dropping the
    /// item) if the buffer was closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return false;
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            self.not_full.wait(&mut state);
        }
    }

    /// Pops the oldest item, blocking while empty. Returns `None` once
    /// the buffer is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Closes the buffer: producers are refused, consumers drain what
    /// remains and then observe the end of the stream.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let buf = CircularBuffer::with_capacity(4);
        for i in 0..4 {
            assert!(buf.push(i));
        }
        for i in 0..4 {
            assert_eq!(buf.pop(), Some(i));
        }
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.capacity, 4);
    }

    #[test]
    fn bounded_push_blocks_until_pop() {
        let buf = Arc::new(CircularBuffer::with_capacity(1));
        buf.push(1);
        let producer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || {
                // This push must block until the consumer pops.
                assert!(buf.push(2));
            })
        };
        thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(buf.len(), 1, "second push must still be blocked");
        assert_eq!(buf.pop(), Some(1));
        producer.join().unwrap();
        assert_eq!(buf.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let buf = Arc::new(CircularBuffer::<u32>::with_capacity(2));
        let consumer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || buf.pop())
        };
        thread::sleep(std::time::Duration::from_millis(20));
        buf.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn producer_consumer_preserves_per_producer_order() {
        let buf = Arc::new(CircularBuffer::with_capacity(8));
        let n = 500usize;
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let buf = Arc::clone(&buf);
                thread::spawn(move || {
                    for i in 0..n {
                        assert!(buf.push((p, i)));
                    }
                })
            })
            .collect();
        let consumer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = buf.pop() {
                    seen.push(item);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        buf.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len(), 3 * n);
        // Per-producer FIFO.
        for p in 0..3 {
            let items: Vec<usize> = seen.iter().filter(|(q, _)| *q == p).map(|&(_, i)| i).collect();
            assert_eq!(items, (0..n).collect::<Vec<_>>(), "producer {p} order");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = CircularBuffer::<u8>::with_capacity(0);
    }
}
