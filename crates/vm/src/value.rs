//! Runtime values of the bytecode interpreter.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A runtime value. Everything is one machine word plus a payload; heap
/// values are `Rc`-shared, so copying a value never copies a structure.
#[derive(Clone, Debug)]
pub enum VmValue {
    /// An integer.
    Int(i64),
    /// A constructor cell: interned tag plus shared fields.
    Con(u32, Rc<Fields>),
    /// A function (or type-function) closure.
    Closure(Rc<ClosureCell>),
    /// A suspended computation (lazy modes and `letrec` aliases).
    Thunk(Rc<ThunkCell>),
}

/// The fields of a constructor cell.
#[derive(Debug, Default)]
pub struct Fields(pub(crate) Vec<VmValue>);

impl std::ops::Deref for Fields {
    type Target = [VmValue];

    fn deref(&self) -> &[VmValue] {
        &self.0
    }
}

/// A closure: code entry plus captured slots. The environment sits in a
/// `RefCell` so recursive groups can be backpatched after every sibling
/// cell exists.
#[derive(Debug)]
pub struct ClosureCell {
    /// Entry label (absolute instruction index after finalization).
    pub label: u32,
    /// Captured values, copied into the frame on entry.
    pub env: RefCell<Vec<VmValue>>,
}

/// A thunk: code entry, captured slots, and a force-state.
#[derive(Debug)]
pub struct ThunkCell {
    /// Entry label of the suspended code.
    pub label: u32,
    /// Captured values (backpatchable, as for closures).
    pub env: RefCell<Vec<VmValue>>,
    /// Pending or (call-by-need only) forced.
    pub state: RefCell<ThunkState>,
    /// Lazy constructor fields are cloned fresh per `case` projection
    /// under call-by-need (the machine allocates a new field thunk each
    /// time it scrutinizes the cell).
    pub per_projection: bool,
}

/// Force-state of a [`ThunkCell`].
#[derive(Clone, Debug)]
pub enum ThunkState {
    /// Not yet demanded (call-by-name and call-by-value re-enter the
    /// code on every demand, exactly like the machine's update-free
    /// thunks).
    Pending,
    /// Demanded and memoized (call-by-need).
    Forced(VmValue),
}

impl VmValue {
    /// Is this value a function? (The charge-if-closure tests.)
    pub fn is_closure(&self) -> bool {
        matches!(self, VmValue::Closure(_))
    }
}

/// Is this the last handle on its cell (so dropping it frees the cell)?
fn sole<T>(cell: &Rc<T>) -> bool {
    Rc::strong_count(cell) == 1 && Rc::weak_count(cell) == 0
}

/// The slots of a thunk: its captures and, once forced, its value.
fn thunk_slots(t: &mut ThunkCell) -> impl Iterator<Item = &mut VmValue> {
    let forced = match t.state.get_mut() {
        ThunkState::Forced(v) => Some(v),
        ThunkState::Pending => None,
    };
    t.env.get_mut().iter_mut().chain(forced)
}

/// Move each of `slots` that is the last handle on its heap cell onto
/// `work`, leaving an `Int` in its place.
fn detach_sole<'a>(slots: impl Iterator<Item = &'a mut VmValue>, work: &mut Vec<VmValue>) {
    for v in slots {
        let last = match v {
            VmValue::Int(_) => false,
            VmValue::Con(_, c) => sole(c),
            VmValue::Closure(c) => sole(c),
            VmValue::Thunk(c) => sole(c),
        };
        if last {
            work.push(std::mem::replace(v, VmValue::Int(0)));
        }
    }
}

/// Free what a dying cell's `slots` hold in a loop: each child that is
/// the last handle on its cell goes onto a work list and is emptied there
/// before it drops, so no cell's drop finds anything left to free below
/// it. A cell shared elsewhere is not touched: dropping one handle to it
/// only decrements its count.
fn drop_iteratively<'a>(slots: impl Iterator<Item = &'a mut VmValue>) {
    let mut work = Vec::new();
    detach_sole(slots, &mut work);
    while let Some(mut v) = work.pop() {
        match &mut v {
            VmValue::Int(_) => {}
            VmValue::Con(_, c) => {
                if let Some(f) = Rc::get_mut(c) {
                    detach_sole(f.0.iter_mut(), &mut work);
                }
            }
            VmValue::Closure(c) => {
                if let Some(c) = Rc::get_mut(c) {
                    detach_sole(c.env.get_mut().iter_mut(), &mut work);
                }
            }
            VmValue::Thunk(t) => {
                if let Some(t) = Rc::get_mut(t) {
                    detach_sole(thunk_slots(t), &mut work);
                }
            }
        }
    }
}

thread_local! {
    /// How many cell drops are under way on this thread's stack.
    static DROP_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Cell drops nest through the drop glue up to this depth; deeper ones
/// switch to [`drop_iteratively`]. Most structures a run frees are far
/// shallower, and for them the glue is the cheaper path.
const MAX_DROP_DEPTH: u32 = 512;

/// Free what a dying cell's `slots` hold, in bounded stack.
///
/// Left to the drop glue alone, freeing a cell frees the cells it held
/// the last handle on, and theirs, one group of stack frames per cell, so
/// dropping a 100,000-cell list overflowed the stack.
fn drop_slots<'a>(slots: impl Iterator<Item = &'a mut VmValue>) {
    let depth = DROP_DEPTH.get();
    if depth < MAX_DROP_DEPTH {
        DROP_DEPTH.set(depth + 1);
        for v in slots {
            drop(std::mem::replace(v, VmValue::Int(0)));
        }
        DROP_DEPTH.set(depth);
    } else {
        drop_iteratively(slots);
    }
}

impl Drop for Fields {
    fn drop(&mut self) {
        drop_slots(self.0.iter_mut());
    }
}

impl Drop for ClosureCell {
    fn drop(&mut self) {
        drop_slots(self.env.get_mut().iter_mut());
    }
}

impl Drop for ThunkCell {
    fn drop(&mut self) {
        drop_slots(thunk_slots(self));
    }
}

/// Why a VM run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The term could not be lowered to bytecode.
    Compile(crate::compile::CompileError),
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// The wall-clock deadline passed (only when one was configured via
    /// [`run_program_with_limits`](crate::exec::run_program_with_limits)).
    Timeout {
        /// The configured wall-clock limit.
        limit: std::time::Duration,
    },
    /// Division or remainder by zero.
    DivideByZero,
    /// A configuration no instruction covers (runtime type error).
    Stuck(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Compile(e) => write!(f, "compile error: {e}"),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::Timeout { limit } => {
                write!(f, "wall-clock deadline exhausted ({limit:?})")
            }
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::Stuck(msg) => write!(f, "vm stuck: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}
