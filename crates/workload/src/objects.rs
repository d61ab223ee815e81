//! Object streams: turning byte flows into object writes.
//!
//! Sheepdog splits a virtual disk into fixed-size data objects (4 MB in
//! the paper's deployment). Both the live cluster and the simulator need
//! to convert "X bytes written" into a sequence of fresh object IDs.

use ech_core::ids::ObjectId;

/// Allocates monotonically increasing object IDs.
#[derive(Debug, Clone)]
pub struct ObjectAllocator {
    next: u64,
}

impl ObjectAllocator {
    /// Start allocating from `first`.
    pub fn new(first: u64) -> Self {
        ObjectAllocator { next: first }
    }

    /// Allocate one object id.
    pub fn alloc(&mut self) -> ObjectId {
        let oid = ObjectId(self.next);
        self.next += 1;
        oid
    }

    /// The id the next allocation will return.
    pub fn peek(&self) -> ObjectId {
        ObjectId(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_is_sequential() {
        let mut a = ObjectAllocator::new(100);
        assert_eq!(a.alloc(), ObjectId(100));
        assert_eq!(a.alloc(), ObjectId(101));
        assert_eq!(a.peek(), ObjectId(102));
    }
}
