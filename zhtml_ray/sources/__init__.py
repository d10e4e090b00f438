from zhtml_ray.sources.pages import gen_pages_table, write_pages_dataset, plan_pages, read_pages

__all__ = ["gen_pages_table", "write_pages_dataset", "plan_pages", "read_pages"]
