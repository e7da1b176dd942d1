//! The ODB database layout and its page map.
//!
//! ODB "simulates an order-entry business": a collection of warehouses,
//! ten sales districts per warehouse, three thousand customers per
//! district (§3.1). Each warehouse occupies about 100 MB of tables and
//! indices; the catalog (item table) is global. This module assigns every
//! logical row range a stable page number so the buffer cache, the disk
//! array and the cache-trace generator all see one consistent address
//! space.

/// Database block size (Oracle-typical 8 KB).
pub const PAGE_BYTES: u64 = 8 << 10;

/// Pages per warehouse: 100 MB of tables + indices.
pub const PAGES_PER_WAREHOUSE: u64 = (100 << 20) / PAGE_BYTES;

/// Districts per warehouse (§3.1).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;

/// Customers per district (§3.1).
pub const CUSTOMERS_PER_DISTRICT: u64 = 3_000;

/// Catalog items (global, shared by all warehouses).
pub const ITEMS: u64 = 100_000;

/// Stock rows per warehouse (one per item).
pub const STOCK_PER_WAREHOUSE: u64 = ITEMS;

/// The tables of the ODB schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// One row per warehouse (hot: every payment updates it).
    Warehouse,
    /// Ten rows per warehouse (hot: every new-order takes its sequence).
    District,
    /// 30,000 rows per warehouse.
    Customer,
    /// 100,000 rows per warehouse, one per catalog item.
    Stock,
    /// Global catalog, 100,000 rows.
    Item,
    /// Order headers; insert-mostly, hot tail.
    Orders,
    /// Order lines; insert-mostly, hot tail.
    OrderLine,
    /// Pending-delivery queue; small and hot.
    NewOrder,
    /// Payment history; append-only tail.
    History,
}

/// Per-warehouse page budget for each table (pages). These sum, with the
/// index budget, to [`PAGES_PER_WAREHOUSE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    /// First page of the extent, relative to the warehouse base.
    offset: u64,
    /// Number of pages in the extent.
    pages: u64,
}

// Per-warehouse layout. Row-size-derived budgets:
//   customer  30k rows × ~700 B  -> 2,625 pages
//   stock    100k rows × ~310 B  -> 3,875 pages
//   orders / order_line / history: history-window tails sized to keep the
//   per-warehouse total at 12,800 pages including ~19% index overhead.
const CUSTOMER_EXTENT: Extent = Extent {
    offset: 0,
    pages: 2_625,
};
const STOCK_EXTENT: Extent = Extent {
    offset: 2_625,
    pages: 3_875,
};
const ORDERS_EXTENT: Extent = Extent {
    offset: 6_500,
    pages: 1_200,
};
const ORDER_LINE_EXTENT: Extent = Extent {
    offset: 7_700,
    pages: 2_400,
};
const HISTORY_EXTENT: Extent = Extent {
    offset: 10_100,
    pages: 260,
};
const NEW_ORDER_EXTENT: Extent = Extent {
    offset: 10_360,
    pages: 40,
};
/// Hot single blocks: district rows share one block, the warehouse row
/// has one.
const DISTRICT_EXTENT: Extent = Extent {
    offset: 10_400,
    pages: 1,
};
const WAREHOUSE_EXTENT: Extent = Extent {
    offset: 10_401,
    pages: 1,
};
/// Per-warehouse B-tree index pages (interior + leaf levels for the
/// customer, stock, orders and order-line indices). The *interior* slice
/// of this extent is the per-warehouse hot set whose aggregate growth
/// with `W` drives the cached-region MPI slope.
const INDEX_EXTENT: Extent = Extent {
    offset: 10_402,
    pages: 2_398,
};

/// Pages in the global item table (100k rows × ~90 B plus its index:
/// ~10 MB, fully cacheable — a permanent resident of a warm SGA).
pub const ITEM_TABLE_PAGES: u64 = 1_280;

/// A stable, global page number.
pub type PageId = u64;

/// Whether a page access reads or modifies the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchKind {
    /// Read-only access.
    Read,
    /// Modifying access (the buffer page becomes dirty).
    Write,
}

/// The page map: logical row coordinates → global page ids.
///
/// Layout: item table first, then `W` warehouse extents of
/// [`PAGES_PER_WAREHOUSE`] each.
///
/// ```
/// use odb_engine::schema::{PageMap, Table};
///
/// let map = PageMap::new(100);
/// let p1 = map.row_page(Table::Customer, 3, 12_345);
/// let p2 = map.row_page(Table::Customer, 3, 12_345);
/// assert_eq!(p1, p2, "page map is stable");
/// assert!(map.total_pages() > 100 * 12_800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMap {
    warehouses: u32,
}

impl PageMap {
    /// A map for `warehouses` warehouses.
    ///
    /// # Panics
    ///
    /// Panics if `warehouses` is zero.
    pub fn new(warehouses: u32) -> Self {
        assert!(warehouses > 0, "at least one warehouse");
        Self { warehouses }
    }

    /// Number of warehouses.
    pub fn warehouses(&self) -> u32 {
        self.warehouses
    }

    /// Total pages in the database (item table + all warehouses).
    pub fn total_pages(&self) -> u64 {
        ITEM_TABLE_PAGES + self.warehouses as u64 * PAGES_PER_WAREHOUSE
    }

    /// Total database size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_BYTES
    }

    fn warehouse_base(&self, warehouse: u32) -> u64 {
        debug_assert!(warehouse < self.warehouses);
        ITEM_TABLE_PAGES + warehouse as u64 * PAGES_PER_WAREHOUSE
    }

    /// The per-warehouse extent of `table`; `None` for [`Table::Item`],
    /// whose pages live in the shared item table, not a warehouse extent.
    fn extent_of(table: Table) -> Option<Extent> {
        Some(match table {
            Table::Customer => CUSTOMER_EXTENT,
            Table::Stock => STOCK_EXTENT,
            Table::Orders => ORDERS_EXTENT,
            Table::OrderLine => ORDER_LINE_EXTENT,
            Table::History => HISTORY_EXTENT,
            Table::NewOrder => NEW_ORDER_EXTENT,
            Table::District => DISTRICT_EXTENT,
            Table::Warehouse => WAREHOUSE_EXTENT,
            Table::Item => return None,
        })
    }

    /// Rows per page for row-addressed tables.
    fn rows_per_page(table: Table) -> u64 {
        match table {
            Table::Customer => (CUSTOMERS_PER_DISTRICT * DISTRICTS_PER_WAREHOUSE)
                .div_ceil(CUSTOMER_EXTENT.pages),
            Table::Stock => STOCK_PER_WAREHOUSE.div_ceil(STOCK_EXTENT.pages),
            _ => 1,
        }
    }

    /// The page holding `row` of `table` in `warehouse`.
    ///
    /// For the circular insert tables (orders, order lines, history,
    /// new-order), `row` is a monotonically growing sequence number and
    /// the extent is used as a ring — the hot tail stays hot while old
    /// pages age out, exactly like a history-window table.
    ///
    /// [`Table::Item`] rows live in the shared item table, so `warehouse`
    /// is ignored for them and the call is equivalent to
    /// [`PageMap::item_page`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when `warehouse` is out of range.
    pub fn row_page(&self, table: Table, warehouse: u32, row: u64) -> PageId {
        let Some(extent) = Self::extent_of(table) else {
            return self.item_page(row);
        };
        let page_in_extent = match table {
            Table::Customer | Table::Stock => {
                (row / Self::rows_per_page(table)).min(extent.pages - 1)
            }
            // Insert rings: sequence numbers wrap around the extent.
            Table::Orders => (row / 40) % extent.pages,
            Table::OrderLine => (row / 80) % extent.pages,
            Table::History => (row / 120) % extent.pages,
            Table::NewOrder => (row / 250) % extent.pages,
            Table::District | Table::Warehouse | Table::Item => 0,
        };
        self.warehouse_base(warehouse) + extent.offset + page_in_extent
    }

    /// The page holding catalog item `item`.
    pub fn item_page(&self, item: u64) -> PageId {
        let rows_per_page = ITEMS.div_ceil(ITEM_TABLE_PAGES);
        (item % ITEMS) / rows_per_page
    }

    /// A page of the per-warehouse index extent. `slot` selects within
    /// the extent; slots near zero are interior (hot) levels.
    pub fn index_page(&self, warehouse: u32, slot: u64) -> PageId {
        self.warehouse_base(warehouse) + INDEX_EXTENT.offset + (slot % INDEX_EXTENT.pages)
    }

    /// Number of pages in the per-warehouse index extent.
    pub fn index_pages() -> u64 {
        INDEX_EXTENT.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded::check;

    #[test]
    fn extents_tile_the_warehouse_without_overlap() {
        let extents = [
            CUSTOMER_EXTENT,
            STOCK_EXTENT,
            ORDERS_EXTENT,
            ORDER_LINE_EXTENT,
            HISTORY_EXTENT,
            NEW_ORDER_EXTENT,
            DISTRICT_EXTENT,
            WAREHOUSE_EXTENT,
            INDEX_EXTENT,
        ];
        let mut covered = 0u64;
        for (i, e) in extents.iter().enumerate() {
            covered += e.pages;
            for (j, f) in extents.iter().enumerate() {
                if i != j {
                    let disjoint =
                        e.offset + e.pages <= f.offset || f.offset + f.pages <= e.offset;
                    assert!(disjoint, "extents {i} and {j} overlap");
                }
            }
        }
        assert_eq!(covered, PAGES_PER_WAREHOUSE, "extents tile 12,800 pages");
    }

    #[test]
    fn warehouse_is_100_megabytes() {
        assert_eq!(PAGES_PER_WAREHOUSE * PAGE_BYTES, 100 << 20);
        let map = PageMap::new(10);
        assert_eq!(
            map.total_bytes(),
            ITEM_TABLE_PAGES * PAGE_BYTES + 10 * (100 << 20)
        );
    }

    #[test]
    fn pages_of_different_warehouses_never_collide() {
        let map = PageMap::new(50);
        let a = map.row_page(Table::Customer, 0, 100);
        let b = map.row_page(Table::Customer, 1, 100);
        assert_ne!(a, b);
        assert_eq!(b - a, PAGES_PER_WAREHOUSE);
        // Index pages too.
        assert_ne!(map.index_page(0, 5), map.index_page(1, 5));
    }

    #[test]
    fn item_pages_are_global_and_below_warehouses() {
        let map = PageMap::new(10);
        let p = map.item_page(99_999);
        assert!(p < ITEM_TABLE_PAGES);
        let first_wh_page = map.row_page(Table::Customer, 0, 0);
        assert!(p < first_wh_page);
    }

    #[test]
    fn customers_pack_multiple_rows_per_page() {
        let map = PageMap::new(1);
        let p0 = map.row_page(Table::Customer, 0, 0);
        let p1 = map.row_page(Table::Customer, 0, 1);
        assert_eq!(p0, p1, "adjacent customers share a page");
        let plast = map.row_page(Table::Customer, 0, 29_999);
        assert!(plast > p0);
        assert!(plast - p0 < CUSTOMER_EXTENT.pages);
    }

    #[test]
    fn insert_rings_wrap() {
        let map = PageMap::new(1);
        let ring = ORDERS_EXTENT.pages * 40; // rows per full ring cycle
        let a = map.row_page(Table::Orders, 0, 7);
        let b = map.row_page(Table::Orders, 0, 7 + ring);
        assert_eq!(a, b, "ring reuses pages after wrap");
        let c = map.row_page(Table::Orders, 0, 7 + 40);
        assert_eq!(c, a + 1, "consecutive pages fill sequentially");
    }

    #[test]
    fn district_and_warehouse_rows_are_single_hot_blocks() {
        let map = PageMap::new(3);
        for w in 0..3 {
            let d = map.row_page(Table::District, w, 0);
            assert_eq!(map.row_page(Table::District, w, 9), d);
            let wh = map.row_page(Table::Warehouse, w, 0);
            assert_eq!(wh, d + 1);
        }
    }

    #[test]
    fn stock_rows_stay_inside_extent() {
        let map = PageMap::new(2);
        let base = map.row_page(Table::Stock, 1, 0);
        let last = map.row_page(Table::Stock, 1, STOCK_PER_WAREHOUSE - 1);
        assert!(last >= base);
        assert!(last - base < STOCK_EXTENT.pages);
    }

    #[test]
    #[should_panic(expected = "at least one warehouse")]
    fn zero_warehouses_panics() {
        let _ = PageMap::new(0);
    }

    /// Every row-addressed page lands inside its warehouse's extent
    /// range, for any table, warehouse and row.
    #[test]
    fn row_pages_stay_in_warehouse() {
        check("row_pages_stay_in_warehouse", 2_000, |d| {
            let warehouses = d.u64_in(1..1500) as u32;
            let warehouse_frac = d.f64_in(0.0..1.0);
            let row = d.u64_in(0..10_000_000);
            let map = PageMap::new(warehouses);
            let warehouse = ((warehouses as f64 - 1.0) * warehouse_frac) as u32;
            let base = ITEM_TABLE_PAGES + warehouse as u64 * PAGES_PER_WAREHOUSE;
            for table in [
                Table::Warehouse,
                Table::District,
                Table::Customer,
                Table::Stock,
                Table::Orders,
                Table::OrderLine,
                Table::NewOrder,
                Table::History,
            ] {
                let page = map.row_page(table, warehouse, row);
                assert!(
                    page >= base && page < base + PAGES_PER_WAREHOUSE,
                    "{table:?} row {row} -> page {page} outside [{}..{})",
                    base,
                    base + PAGES_PER_WAREHOUSE
                );
            }
            let ix = map.index_page(warehouse, row);
            assert!(ix >= base && ix < base + PAGES_PER_WAREHOUSE);
            assert!(map.item_page(row) < ITEM_TABLE_PAGES);
        });
    }

    /// The page map is a pure function: equal inputs, equal pages.
    #[test]
    fn page_map_is_deterministic() {
        check("page_map_is_deterministic", 2_000, |d| {
            let warehouses = d.u64_in(1..200) as u32;
            let row = d.u64_in(0..1_000_000);
            let a = PageMap::new(warehouses);
            let b = PageMap::new(warehouses);
            assert_eq!(
                a.row_page(Table::Stock, 0, row),
                b.row_page(Table::Stock, 0, row)
            );
            assert_eq!(a.total_pages(), b.total_pages());
        });
    }
}
